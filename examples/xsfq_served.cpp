/// xsfq_served — the synthesis-as-a-service daemon.
///
///   xsfq_served [--socket=PATH] [--listen=HOST:PORT] [--auth-token=SECRET]
///               [--threads=N] [--cache-dir=DIR] [--max-disk-entries=N]
///               [--retained-bytes=N] [--max-queue=N] [--max-inflight=N]
///               [--max-conns=N] [--io-timeout-ms=N] [--idle-timeout-ms=N]
///               [--faults=SCHED] [--log-level=LEVEL] [--trace-out=DIR]
///
/// Owns one long-lived flow::batch_runner behind up to two listeners
/// speaking the serve protocol (src/serve/protocol.hpp): the Unix-domain
/// socket (local clients) and, with --listen, a TCP endpoint for remote
/// ones.  Clients submit circuits, stream per-stage progress, and fetch
/// results that are byte-identical to a local xsfq_synth run — while the
/// daemon keeps every cache tier warm across requests and, with
/// --cache-dir, across restarts.
///
/// TCP clients must authenticate with the shared secret when one is
/// configured (--auth-token, or the XSFQ_AUTH_TOKEN environment variable so
/// the secret stays out of `ps` output).  Admission control (--max-queue /
/// --max-inflight) sheds load with typed `overloaded` errors instead of
/// queueing unboundedly; --max-conns bounds handler threads the same way.
///
/// Every connection runs under an I/O deadline (--io-timeout-ms, default
/// 30000; 0 disables): a peer that stalls mid-frame or stops draining its
/// socket gets a typed io_timeout error and its handler thread back,
/// instead of pinning it (--idle-timeout-ms separately bounds quiet
/// keep-alive connections).  --faults=SCHEDULE (or XSFQ_FAULTS=) arms the
/// deterministic fault-injection registry (util/fault.hpp) for chaos
/// drills; never set it in production.
///
/// Observability (v6): --log-level=LEVEL (trace|debug|info|warn|error|off,
/// default info) gates the structured logfmt stream on stderr — one line
/// per connection/request lifecycle event, each carrying the request's
/// trace_id when the client sent one.  --trace-out=DIR exports every traced
/// request's span tree as Chrome trace-event JSON (Perfetto-loadable) to
/// DIR.  SIGUSR1 dumps the always-on flight recorder — the last ~2k spans
/// per thread, traced or not — to xsfq_flight_<pid>.json (in --trace-out's
/// directory when set, else the working directory) and keeps serving.
///
/// Runs in the foreground (a supervisor or `&` backgrounds it).  SIGINT,
/// SIGTERM, or a client `shutdown` request drain gracefully: in-flight
/// requests finish and receive their responses, disk-cache writes land
/// atomically, and the process exits 0.  docs/operations.md covers
/// deployment, sizing, and failure modes.
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "flow/batch_runner.hpp"
#include "serve/server.hpp"
#include "serve/synth_service.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

using namespace xsfq;

namespace {

bool parse_count(const std::string& value, std::size_t& out) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  out = static_cast<std::size_t>(n);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::server_options options;
  options.socket_path = serve::default_socket_path;
  if (const char* env = std::getenv("XSFQ_AUTH_TOKEN"); env != nullptr) {
    options.auth_token = env;
  }
  const auto usage = [] {
    std::cerr << "usage: xsfq_served [--socket=PATH] [--listen=HOST:PORT] "
                 "[--auth-token=SECRET] [--threads=N] [--cache-dir=DIR] "
                 "[--max-disk-entries=N] [--retained-bytes=N] [--max-queue=N] "
                 "[--max-inflight=N] [--max-conns=N] [--io-timeout-ms=N] "
                 "[--idle-timeout-ms=N] [--faults=SCHEDULE] "
                 "[--log-level=LEVEL] [--trace-out=DIR]\n";
    return 2;
  };
  std::string fault_schedule;
  const auto parse_timeout = [](const std::string& value, int& out) {
    char* end = nullptr;
    const long n = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || n < 0 || n > 86400000)
      return false;
    out = static_cast<int>(n);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = serve::cli_value(arg, "--socket"); !v.empty()) {
      options.socket_path = v;
    } else if (auto vl = serve::cli_value(arg, "--listen"); !vl.empty()) {
      options.listen_address = vl;
    } else if (auto va = serve::cli_value(arg, "--auth-token"); !va.empty()) {
      options.auth_token = va;
    } else if (auto v2 = serve::cli_value(arg, "--threads"); !v2.empty()) {
      const auto n = flow::parse_thread_count(v2.c_str());
      if (!n) {
        std::cerr << "--threads expects 0..256, got: " << v2 << "\n";
        return 2;
      }
      options.threads = *n;
    } else if (auto v3 = serve::cli_value(arg, "--cache-dir"); !v3.empty()) {
      options.cache_dir = v3;
    } else if (auto v4 = serve::cli_value(arg, "--max-disk-entries");
               !v4.empty()) {
      if (!parse_count(v4, options.max_disk_entries)) {
        std::cerr << "--max-disk-entries expects a number (0 = unlimited), "
                     "got: " << v4 << "\n";
        return 2;
      }
    } else if (auto vr = serve::cli_value(arg, "--retained-bytes");
               !vr.empty()) {
      // Byte budget of the ECO retained-network LRU (v7); sub-megabyte
      // budgets are almost certainly a unit mistake, except 0 ("retain the
      // current base only"), which is a legitimate minimal setting.
      if (!parse_count(vr, options.retained_bytes)) {
        std::cerr << "--retained-bytes expects a byte count (default "
                     "268435456), got: " << vr << "\n";
        return 2;
      }
    } else if (auto v5 = serve::cli_value(arg, "--max-queue"); !v5.empty()) {
      if (!parse_count(v5, options.max_queue)) {
        std::cerr << "--max-queue expects a number (0 = shed everything that "
                     "cannot start immediately), got: " << v5 << "\n";
        return 2;
      }
    } else if (auto v6 = serve::cli_value(arg, "--max-inflight");
               !v6.empty()) {
      if (!parse_count(v6, options.max_inflight)) {
        std::cerr << "--max-inflight expects a number (0 = worker count), "
                     "got: " << v6 << "\n";
        return 2;
      }
    } else if (auto v7 = serve::cli_value(arg, "--max-conns"); !v7.empty()) {
      if (!parse_count(v7, options.max_conns) || options.max_conns == 0) {
        std::cerr << "--max-conns expects a positive number, got: " << v7
                  << "\n";
        return 2;
      }
    } else if (auto v8 = serve::cli_value(arg, "--io-timeout-ms");
               !v8.empty()) {
      if (!parse_timeout(v8, options.io_timeout_ms)) {
        std::cerr << "--io-timeout-ms expects 0..86400000 (0 = no deadline), "
                     "got: " << v8 << "\n";
        return 2;
      }
    } else if (auto v9 = serve::cli_value(arg, "--idle-timeout-ms");
               !v9.empty()) {
      if (!parse_timeout(v9, options.idle_timeout_ms)) {
        std::cerr << "--idle-timeout-ms expects 0..86400000 (0 = forever), "
                     "got: " << v9 << "\n";
        return 2;
      }
    } else if (auto vf = serve::cli_value(arg, "--faults"); !vf.empty()) {
      fault_schedule = vf;
    } else if (auto vll = serve::cli_value(arg, "--log-level"); !vll.empty()) {
      log::level lvl;
      if (!log::parse_level(vll, lvl)) {
        std::cerr << "--log-level expects trace|debug|info|warn|error|off, "
                     "got: " << vll << "\n";
        return 2;
      }
      log::set_level(lvl);
    } else if (auto vto = serve::cli_value(arg, "--trace-out"); !vto.empty()) {
      options.trace_out_dir = vto;
    } else {
      return usage();
    }
  }

  // Arm fault injection for chaos drills: the flag wins over the
  // environment so a drill script can override a stale export.  A bad
  // schedule must abort startup loudly, not run a fault-free "drill".
  try {
    if (!fault_schedule.empty()) {
      fault::arm(fault_schedule);
    } else {
      fault::arm_from_env();
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << "xsfq_served: " << e.what() << "\n";
    return 2;
  }

#ifdef M_ARENA_MAX
  // glibc gives each allocating thread its own malloc arena, up to eight
  // per core, and an arena keeps the memory freed into it.  Requests run
  // on their connection's handler thread, so by default the result caches'
  // churn spreads over one arena per connection and the daemon's peak RSS
  // grows with the connection count.  Size the arenas by the threads that
  // allocate at once instead: each execution slot, one handler doing I/O
  // beside it, and the main and accept threads.
  {
    const std::size_t workers =
        options.threads != 0
            ? options.threads
            : std::max(1u, std::thread::hardware_concurrency());
    const std::size_t slots =
        options.max_inflight != 0 ? options.max_inflight : workers;
    mallopt(M_ARENA_MAX, static_cast<int>(std::min<std::size_t>(
                             2 * slots + 2, 1024)));
  }
#endif

  // Signals are consumed synchronously below; block them before any thread
  // exists so every server/worker thread inherits the mask.  SIGUSR1 joins
  // the set so the flight-recorder dump runs on the main thread — plain
  // function calls, no async-signal-safety gymnastics.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGINT);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  try {
    serve::server srv(options);
    std::cout << "xsfq_served: listening on " << options.socket_path;
    if (!options.listen_address.empty()) {
      std::cout << " and tcp port " << srv.tcp_port()
                << (options.auth_token.empty() ? " (NO auth token)"
                                               : " (auth required)");
    }
    std::cout << " (" << srv.runner().num_threads() << " workers"
              << (options.cache_dir.empty()
                      ? std::string{}
                      : ", disk cache " + options.cache_dir)
              << ")\n";
    if (fault::armed()) {
      std::cout << "xsfq_served: FAULT INJECTION ARMED: " << fault::describe()
                << "\n";
    }
    std::cout << std::flush;

    // Two wake sources, one drain: a client shutdown request re-raises
    // SIGTERM so the main thread only ever waits in sigwait.
    std::thread shutdown_waiter([&srv] {
      srv.wait_shutdown_requested();
      if (srv.shutdown_requested()) kill(getpid(), SIGTERM);
    });
    int sig = 0;
    for (;;) {
      sigwait(&sigs, &sig);
      if (sig != SIGUSR1) break;
      // Flight-recorder dump: snapshot every thread's span ring to Chrome
      // trace-event JSON and keep serving.  Lands next to the per-request
      // exports when --trace-out is set, else in the working directory.
      const std::string dump_path =
          (options.trace_out_dir.empty() ? std::string{}
                                         : options.trace_out_dir + "/") +
          "xsfq_flight_" + std::to_string(getpid()) + ".json";
      if (trace::dump_chrome_trace(dump_path)) {
        log::line(log::level::info, "flight.dump").kv("path", dump_path);
      } else {
        log::line(log::level::warn, "flight.dump_failed").kv("path",
                                                             dump_path);
      }
    }
    std::cout << "xsfq_served: "
              << (srv.shutdown_requested() ? "shutdown requested"
                                           : strsignal(sig))
              << ", draining\n"
              << std::flush;
    srv.stop();
    shutdown_waiter.join();
    const auto status = srv.stats().status;
    std::cout << "xsfq_served: served " << status.jobs_completed << "/"
              << status.jobs_submitted << " jobs, exiting\n";
  } catch (const std::exception& e) {
    std::cerr << "xsfq_served: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
