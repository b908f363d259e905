#include "graph/csr_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstddef>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace ugs {
namespace {

// The mmap'ed arrays are read in place, so the in-memory record layouts
// are the on-disk layouts. Pin them.
static_assert(std::is_trivially_copyable_v<UncertainEdge>);
static_assert(sizeof(UncertainEdge) == 16 && alignof(UncertainEdge) == 8);
static_assert(offsetof(UncertainEdge, u) == 0);
static_assert(offsetof(UncertainEdge, v) == 4);
static_assert(offsetof(UncertainEdge, p) == 8);
static_assert(std::is_trivially_copyable_v<AdjacencyEntry>);
static_assert(sizeof(AdjacencyEntry) == 8 && alignof(AdjacencyEntry) == 4);
static_assert(offsetof(AdjacencyEntry, neighbor) == 0);
static_assert(offsetof(AdjacencyEntry, edge) == 4);
static_assert(sizeof(double) == 8);

constexpr std::size_t kSectionTableOffset = 32;
constexpr std::size_t kSectionDescriptorBytes = 24;
constexpr std::size_t kHeaderCrcOffset = 128;

std::uint64_t AlignUp(std::uint64_t x) {
  return (x + (kCsrSectionAlign - 1)) & ~(std::uint64_t{kCsrSectionAlign} - 1);
}

// Little-endian field access. The format (and this reader/writer) is
// little-endian only; big-endian hosts are rejected up front, so plain
// memcpy is the correct codec here.
template <typename T>
T LoadLE(const std::uint8_t* at) {
  T value;
  std::memcpy(&value, at, sizeof(T));
  return value;
}

template <typename T>
void StoreLE(std::uint8_t* at, T value) {
  std::memcpy(at, &value, sizeof(T));
}

Status HostEndiannessOk() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::FailedPrecondition(
        "csr: the .ugsc format is little-endian and this host is not");
  }
  return Status::OK();
}

/// Section payload lengths are fully determined by (n, m).
std::uint64_t SectionLength(CsrSection section, std::uint64_t n,
                            std::uint64_t m) {
  switch (section) {
    case CsrSection::kEdges:
      return 16 * m;
    case CsrSection::kOffsets:
      return 8 * (n + 1);
    case CsrSection::kAdjacency:
      return 16 * m;  // 2m entries of 8 bytes.
    case CsrSection::kExpectedDegrees:
      return 8 * n;
  }
  return 0;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("csr: " + what);
}

Status ValidateStructure(const CsrArrays& a, std::uint64_t n,
                         std::uint64_t m) {
  const std::span<const std::uint64_t> off = a.degree_offsets;
  if (off[0] != 0) return Corrupt("degree_offsets[0] != 0");
  for (std::uint64_t i = 0; i < n; ++i) {
    if (off[i + 1] < off[i]) {
      return Corrupt("degree_offsets not monotonic at vertex " +
                     std::to_string(i));
    }
  }
  if (off[n] != 2 * m) {
    return Corrupt("degree_offsets[n] = " + std::to_string(off[n]) +
                   ", want 2|E| = " + std::to_string(2 * m));
  }
  for (std::uint64_t e = 0; e < m; ++e) {
    const Status edge = CheckEdge(a.edges[e], n);
    if (!edge.ok()) {
      return Corrupt("edge " + std::to_string(e) + ": " + edge.message());
    }
  }
  for (std::uint64_t u = 0; u < n; ++u) {
    std::int64_t prev = -1;
    for (std::uint64_t k = off[u]; k < off[u + 1]; ++k) {
      const AdjacencyEntry entry = a.adjacency[k];
      if (entry.neighbor >= n || entry.edge >= m) {
        return Corrupt("adjacency entry out of range at vertex " +
                       std::to_string(u));
      }
      if (static_cast<std::int64_t>(entry.neighbor) <= prev) {
        return Corrupt("adjacency slice of vertex " + std::to_string(u) +
                       " not strictly sorted (parallel edge or disorder)");
      }
      prev = entry.neighbor;
      const UncertainEdge& ed = a.edges[entry.edge];
      const bool forward = ed.u == u && ed.v == entry.neighbor;
      const bool backward = ed.v == u && ed.u == entry.neighbor;
      if (!forward && !backward) {
        return Corrupt("adjacency entry at vertex " + std::to_string(u) +
                       " disagrees with edge " + std::to_string(entry.edge));
      }
    }
  }
  for (std::uint64_t u = 0; u < n; ++u) {
    const double d = a.expected_degrees[u];
    if (!std::isfinite(d) || d < 0.0) {
      return Corrupt("expected degree of vertex " + std::to_string(u) +
                     " is not a finite non-negative value");
    }
  }
  return Status::OK();
}

/// The read-only mapping a graph view pins. Unmapped when the last
/// copy/move of the view goes away.
struct Mapping {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<std::uint8_t*>(data), size);
    }
  }
};

}  // namespace

const char* CsrSectionName(CsrSection section) {
  switch (section) {
    case CsrSection::kEdges:
      return "edges";
    case CsrSection::kOffsets:
      return "offsets";
    case CsrSection::kAdjacency:
      return "adjacency";
    case CsrSection::kExpectedDegrees:
      return "expected_degrees";
  }
  return "unknown";
}

std::string CsrFileImage(const UncertainGraph& graph) {
  UGS_CHECK(HostEndiannessOk().ok());
  const CsrArrays arrays = graph.csr_arrays();
  const std::uint64_t n = graph.num_vertices();
  const std::uint64_t m = graph.num_edges();

  // Lay the sections out back to back on 64-byte boundaries. A
  // default-constructed (empty) graph has no offsets storage at all, but
  // the format still records the mandatory offsets[n] == 2m sentinel.
  static constexpr std::uint64_t kZeroOffset = 0;
  const void* offsets_payload = arrays.degree_offsets.empty()
                                    ? static_cast<const void*>(&kZeroOffset)
                                    : arrays.degree_offsets.data();
  CsrSectionInfo sections[kCsrNumSections];
  std::uint64_t cursor = kCsrHeaderBytes;
  const void* payloads[kCsrNumSections] = {
      arrays.edges.data(), offsets_payload, arrays.adjacency.data(),
      arrays.expected_degrees.data()};
  for (int s = 0; s < kCsrNumSections; ++s) {
    sections[s].offset = cursor;
    sections[s].length = SectionLength(static_cast<CsrSection>(s), n, m);
    sections[s].crc32 = Crc32(payloads[s], sections[s].length);
    cursor = AlignUp(sections[s].offset + sections[s].length);
  }
  // No trailing padding: the file ends where the last section does.
  const std::uint64_t file_size =
      sections[kCsrNumSections - 1].offset +
      sections[kCsrNumSections - 1].length;

  std::string image(file_size, '\0');
  std::uint8_t* base = reinterpret_cast<std::uint8_t*>(image.data());
  StoreLE<std::uint32_t>(base + 0, kCsrMagic);
  StoreLE<std::uint16_t>(base + 4, kCsrVersion);
  StoreLE<std::uint16_t>(base + 6, 0);  // flags
  StoreLE<std::uint64_t>(base + 8, n);
  StoreLE<std::uint64_t>(base + 16, m);
  StoreLE<std::uint64_t>(base + 24, file_size);
  for (int s = 0; s < kCsrNumSections; ++s) {
    std::uint8_t* d = base + kSectionTableOffset + s * kSectionDescriptorBytes;
    StoreLE<std::uint64_t>(d + 0, sections[s].offset);
    StoreLE<std::uint64_t>(d + 8, sections[s].length);
    StoreLE<std::uint32_t>(d + 16, sections[s].crc32);
    StoreLE<std::uint32_t>(d + 20, 0);
    if (sections[s].length > 0) {
      std::memcpy(base + sections[s].offset, payloads[s],
                  sections[s].length);
    }
  }
  StoreLE<std::uint32_t>(base + kHeaderCrcOffset,
                         Crc32(base, kHeaderCrcOffset));
  return image;
}

Status WriteCsrGraph(const UncertainGraph& graph, const std::string& path) {
  UGS_RETURN_IF_ERROR(HostEndiannessOk());
  const std::string image = CsrFileImage(graph);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("csr: cannot open '" + tmp + "' for writing: " +
                           std::strerror(errno));
  }
  const std::size_t written = std::fwrite(image.data(), 1, image.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != image.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("csr: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("csr: cannot rename '" + tmp + "' to '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

Status ValidateCsrImage(std::span<const std::uint8_t> image,
                        const CsrOpenOptions& options, CsrArrays* arrays,
                        CsrFileInfo* info) {
  UGS_RETURN_IF_ERROR(HostEndiannessOk());
  if (image.size() < kCsrHeaderBytes) {
    return Status::OutOfRange(
        "csr: truncated: " + std::to_string(image.size()) +
        " bytes is smaller than the " + std::to_string(kCsrHeaderBytes) +
        "-byte header");
  }
  const std::uint8_t* base = image.data();
  const std::uint32_t magic = LoadLE<std::uint32_t>(base + 0);
  if (magic != kCsrMagic) {
    const std::uint32_t swapped = ((magic >> 24) & 0xFFu) |
                                  ((magic >> 8) & 0xFF00u) |
                                  ((magic << 8) & 0xFF0000u) | (magic << 24);
    if (swapped == kCsrMagic) {
      return Status::FailedPrecondition(
          "csr: byte-swapped magic: file was written on (or corrupted "
          "into) big-endian byte order");
    }
    return Corrupt("bad magic (not a .ugsc file)");
  }

  CsrFileInfo decoded;
  decoded.version = LoadLE<std::uint16_t>(base + 4);
  decoded.flags = LoadLE<std::uint16_t>(base + 6);
  decoded.num_vertices = LoadLE<std::uint64_t>(base + 8);
  decoded.num_edges = LoadLE<std::uint64_t>(base + 16);
  decoded.file_size = LoadLE<std::uint64_t>(base + 24);
  decoded.header_crc = LoadLE<std::uint32_t>(base + kHeaderCrcOffset);
  for (int s = 0; s < kCsrNumSections; ++s) {
    const std::uint8_t* d =
        base + kSectionTableOffset + s * kSectionDescriptorBytes;
    decoded.sections[s].offset = LoadLE<std::uint64_t>(d + 0);
    decoded.sections[s].length = LoadLE<std::uint64_t>(d + 8);
    decoded.sections[s].crc32 = LoadLE<std::uint32_t>(d + 16);
  }
  if (info != nullptr) *info = decoded;

  if (decoded.version != kCsrVersion) {
    return Status::FailedPrecondition(
        "csr: unsupported version " + std::to_string(decoded.version) +
        " (this reader understands version " + std::to_string(kCsrVersion) +
        ")");
  }
  if (decoded.flags != 0) {
    return Status::FailedPrecondition(
        "csr: unknown flags " + std::to_string(decoded.flags) +
        " (written by a newer tool)");
  }
  if (Crc32(base, kHeaderCrcOffset) != decoded.header_crc) {
    return Corrupt("header checksum mismatch");
  }
  for (std::size_t i = kHeaderCrcOffset + 4; i < kCsrHeaderBytes; ++i) {
    if (base[i] != 0) return Corrupt("reserved header bytes are not zero");
  }
  if (image.size() < decoded.file_size) {
    return Status::OutOfRange(
        "csr: truncated: header records " + std::to_string(decoded.file_size) +
        " bytes but only " + std::to_string(image.size()) + " are present");
  }
  if (image.size() > decoded.file_size) {
    return Corrupt("trailing garbage past the recorded file size");
  }

  const std::uint64_t n = decoded.num_vertices;
  const std::uint64_t m = decoded.num_edges;
  // VertexId / EdgeId are u32 (kInvalidEdge reserves the top EdgeId).
  if (n > (std::uint64_t{1} << 32) || m > 0xFFFFFFFEull) {
    return Corrupt("vertex or edge count exceeds the 32-bit id space");
  }
  std::uint64_t expected_offset = kCsrHeaderBytes;
  for (int s = 0; s < kCsrNumSections; ++s) {
    const CsrSectionInfo& sec = decoded.sections[s];
    const char* name = CsrSectionName(static_cast<CsrSection>(s));
    const std::uint64_t want_length =
        SectionLength(static_cast<CsrSection>(s), n, m);
    if (sec.length != want_length) {
      return Corrupt(std::string("section '") + name + "' length " +
                     std::to_string(sec.length) + " disagrees with the " +
                     "header counts (want " + std::to_string(want_length) +
                     ")");
    }
    if (sec.offset % kCsrSectionAlign != 0) {
      return Corrupt(std::string("section '") + name +
                     "' is not 64-byte aligned");
    }
    if (sec.offset != expected_offset) {
      return Corrupt(std::string("section '") + name +
                     "' is not at its canonical offset");
    }
    if (sec.offset + sec.length > decoded.file_size) {
      return Status::OutOfRange(std::string("csr: section '") + name +
                                "' extends past the end of the file");
    }
    expected_offset = AlignUp(sec.offset + sec.length);
  }
  if (decoded.sections[kCsrNumSections - 1].offset +
          decoded.sections[kCsrNumSections - 1].length !=
      decoded.file_size) {
    return Corrupt("file size disagrees with the section layout");
  }

  if (options.verify_checksums) {
    for (int s = 0; s < kCsrNumSections; ++s) {
      const CsrSectionInfo& sec = decoded.sections[s];
      if (Crc32(base + sec.offset, sec.length) != sec.crc32) {
        return Corrupt(std::string("section '") +
                       CsrSectionName(static_cast<CsrSection>(s)) +
                       "' checksum mismatch (corruption)");
      }
    }
  }

  CsrArrays out;
  out.edges = {reinterpret_cast<const UncertainEdge*>(
                   base + decoded.sections[0].offset),
               static_cast<std::size_t>(m)};
  out.degree_offsets = {reinterpret_cast<const std::uint64_t*>(
                            base + decoded.sections[1].offset),
                        static_cast<std::size_t>(n + 1)};
  out.adjacency = {reinterpret_cast<const AdjacencyEntry*>(
                       base + decoded.sections[2].offset),
                   static_cast<std::size_t>(2 * m)};
  out.expected_degrees = {reinterpret_cast<const double*>(
                              base + decoded.sections[3].offset),
                          static_cast<std::size_t>(n)};
  if (options.validate_structure) {
    UGS_RETURN_IF_ERROR(ValidateStructure(out, n, m));
  }
  if (arrays != nullptr) *arrays = out;
  return Status::OK();
}

Result<MappedGraph> MappedGraph::Open(const std::string& path,
                                      CsrOpenOptions options) {
  UGS_RETURN_IF_ERROR(HostEndiannessOk());
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("csr: cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("csr: cannot stat '" + path + "': " +
                           std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kCsrHeaderBytes) {
    ::close(fd);
    return Status::OutOfRange(
        "csr: truncated: '" + path + "' is " + std::to_string(size) +
        " bytes, smaller than the " + std::to_string(kCsrHeaderBytes) +
        "-byte header");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (mapped == MAP_FAILED) {
    return Status::IOError("csr: mmap of '" + path + "' failed: " +
                           std::strerror(errno));
  }
  auto mapping = std::make_shared<Mapping>();
  mapping->data = static_cast<const std::uint8_t*>(mapped);
  mapping->size = size;

  MappedGraph result;
  CsrArrays arrays;
  Status validated = ValidateCsrImage({mapping->data, mapping->size}, options,
                                      &arrays, &result.info_);
  if (!validated.ok()) {
    // Prefix the path so registry-level failures name the file.
    return Status(validated.code(),
                  "'" + path + "': " + validated.message());
  }
  result.graph_ = UncertainGraph::FromCsrView(arrays, std::move(mapping),
                                             size);
  return result;
}

}  // namespace ugs
