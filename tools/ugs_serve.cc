// ugs_serve: long-lived TCP daemon serving uncertain-graph queries from a
// graph directory through the wire protocol (service/wire.h) and the
// multi-graph session registry (service/session_registry.h).
//
//   ugs_serve --dir=<graph dir> [--host=127.0.0.1] [--port=7471]
//             [--workers=4] [--max-sessions=8]
//             [--max-bytes=0] [--cache-entries=0] [--cache-bytes=0]
//             [--cache-max-entry-bytes=0] [--engine-threads=0]
//             [--port-file=<path>]
//
// Graph ids resolve to files in --dir ("g1" -> g1 or g1.txt). One
// reactor thread multiplexes every connection and --workers query
// threads drain the decoded requests (idle connections cost no worker;
// pipelined requests are answered in order). Each resident graph's
// session owns one --engine-threads pool, shared by that graph's later
// versions, so engine workers stay within
// max-sessions x (engine-threads - 1).
// --cache-entries/--cache-bytes enable the exact result cache
// (responses are pure functions of (graph id, request), so hits replay
// byte-identical payloads). Responses are bit-identical to
// GraphSession::Run locally at any worker count, cache on or off.
// --port=0 binds an ephemeral port; --port-file writes the bound port
// (what the CI smoke and scripted callers use). SIGINT / SIGTERM shut
// down cleanly: in-flight requests finish, then the process exits 0.
// Tuning guide: docs/operations.md.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "service/server.h"
#include "util/parse.h"

namespace {

void Usage() {
  std::fprintf(
      stderr,
      "usage: ugs_serve --dir=<graph dir>\n"
      "  --host=<a>          bind address             (default 127.0.0.1)\n"
      "  --port=<p>          TCP port; 0 = ephemeral  (default 7471)\n"
      "  --workers=<n>       query threads            (default 4)\n"
      "  --max-sessions=<n>  resident graph budget; 0 = unlimited\n"
      "                      (default 8, LRU eviction past it)\n"
      "  --max-bytes=<n>     resident memory budget; 0 = unlimited\n"
      "  --cache-entries=<n> result-cache entry budget; 0 = see below\n"
      "  --cache-bytes=<n>   result-cache byte budget; 0 = see below\n"
      "                      (both 0 disables the cache -- the default)\n"
      "  --cache-max-entry-bytes=<n> admission cap on one cached entry;\n"
      "                      0 = cache-bytes/8 (responses over the cap\n"
      "                      are served but never cached)\n"
      "  --engine-threads=<n> threads of each resident graph's engine pool;\n"
      "                      0 = hardware concurrency. Engine workers stay\n"
      "                      within max-sessions x (engine-threads - 1)\n"
      "  --slow-query-ms=<n> log one structured line per request slower\n"
      "                      than n ms; 0 = off (docs/observability.md)\n"
      "  --no-telemetry      skip per-request span recording (counters\n"
      "                      and the metrics exposition stay live)\n"
      "  --port-file=<path>  write the bound port after startup\n");
  std::exit(2);
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  std::exit(2);
}

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::string dir, host = "127.0.0.1", port_file;
  std::int64_t port = 7471, workers = 4, max_sessions = 8, max_bytes = 0;
  std::int64_t cache_entries = 0, cache_bytes = 0, cache_max_entry_bytes = 0;
  std::int64_t engine_threads = 0, slow_query_ms = 0;
  bool telemetry_enabled = true;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--dir=", 6) == 0) {
      dir = arg + 6;
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      port = ugs::ParseInt64OrExit("--port", arg + 7);
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      workers = ugs::ParseInt64OrExit("--workers", arg + 10);
    } else if (std::strncmp(arg, "--max-sessions=", 15) == 0) {
      max_sessions = ugs::ParseInt64OrExit("--max-sessions", arg + 15);
    } else if (std::strncmp(arg, "--max-bytes=", 12) == 0) {
      max_bytes = ugs::ParseInt64OrExit("--max-bytes", arg + 12);
    } else if (std::strncmp(arg, "--cache-entries=", 16) == 0) {
      cache_entries = ugs::ParseInt64OrExit("--cache-entries", arg + 16);
    } else if (std::strncmp(arg, "--cache-max-entry-bytes=", 24) == 0) {
      cache_max_entry_bytes =
          ugs::ParseInt64OrExit("--cache-max-entry-bytes", arg + 24);
    } else if (std::strncmp(arg, "--cache-bytes=", 14) == 0) {
      cache_bytes = ugs::ParseInt64OrExit("--cache-bytes", arg + 14);
    } else if (std::strncmp(arg, "--engine-threads=", 17) == 0) {
      engine_threads = ugs::ParseInt64OrExit("--engine-threads", arg + 17);
    } else if (std::strncmp(arg, "--slow-query-ms=", 16) == 0) {
      slow_query_ms = ugs::ParseInt64OrExit("--slow-query-ms", arg + 16);
    } else if (std::strcmp(arg, "--no-telemetry") == 0) {
      telemetry_enabled = false;
    } else if (std::strncmp(arg, "--port-file=", 12) == 0) {
      port_file = arg + 12;
    } else {
      Usage();
    }
  }
  if (dir.empty()) Usage();
  if (port < 0 || port > 65535) Die("--port must be in [0, 65535]");
  if (workers <= 0) Die("--workers must be positive");
  if (max_sessions < 0 || max_bytes < 0 || cache_entries < 0 ||
      cache_bytes < 0 || cache_max_entry_bytes < 0 || engine_threads < 0 ||
      slow_query_ms < 0) {
    Die("budgets, thread counts, and --slow-query-ms must be >= 0");
  }

  ugs::ServerOptions options;
  options.host = host;
  options.port = static_cast<int>(port);
  options.num_workers = static_cast<int>(workers);
  options.cache.max_entries = static_cast<std::size_t>(cache_entries);
  options.cache.max_bytes = static_cast<std::size_t>(cache_bytes);
  options.cache.max_entry_bytes =
      static_cast<std::size_t>(cache_max_entry_bytes);
  options.registry.graph_dir = dir;
  options.registry.max_sessions = static_cast<std::size_t>(max_sessions);
  options.registry.max_resident_bytes = static_cast<std::size_t>(max_bytes);
  options.registry.session.engine.num_threads =
      static_cast<int>(engine_threads);
  options.telemetry.enabled = telemetry_enabled;
  options.telemetry.slow_query_ms = static_cast<int>(slow_query_ms);

  ugs::Server server(options);
  ugs::Status started = server.Start();
  if (!started.ok()) Die(started.ToString());
  std::printf("ugs_serve: listening on %s:%d (dir=%s workers=%lld "
              "max-sessions=%lld max-bytes=%lld cache-entries=%lld "
              "cache-bytes=%lld)\n",
              host.c_str(), server.port(), dir.c_str(),
              static_cast<long long>(workers),
              static_cast<long long>(max_sessions),
              static_cast<long long>(max_bytes),
              static_cast<long long>(cache_entries),
              static_cast<long long>(cache_bytes));
  std::fflush(stdout);

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) Die("cannot write port file '" + port_file + "'");
    std::fprintf(f, "%d\n", server.port());
    std::fclose(f);
  }

  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);  // Peer hang-ups surface as EPIPE.

  // The workers own all the traffic; the main thread just waits for a
  // shutdown signal (poll-sleeping keeps the handler async-signal-safe:
  // it only flips a flag).
  while (g_shutdown == 0) {
    timespec nap{0, 50 * 1000 * 1000};  // 50 ms.
    nanosleep(&nap, nullptr);
  }
  std::printf("ugs_serve: shutting down\n");
  server.Stop();
  std::printf("ugs_serve: %s\n", server.StatsJson().c_str());
  return 0;
}
