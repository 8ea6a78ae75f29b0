// dbgp_server — host a D-BGP network as a long-lived route-server daemon.
//
//   dbgp_server [<scenario-file>] [--restore <snapshot>] [--script <file>]
//               [--socket <path>] [--serve] [--batched] [--quiet]
//               [--no-causal] [--speaker-threads <n>]
//
// The daemon owns one simnet::DbgpNetwork for the lifetime of the process
// and exposes the server/control.h command grammar (`help` lists it) for
// live reconfiguration — add/remove peerings, hot policy reload, rolling
// protocol upgrades, chaos injection, crash/graceful-restart, RIB
// snapshot/restore — plus query verbs (rib/why/blame/metrics/health) over
// the causal trace and the telemetry registry.
//
// Command sources, in order:
//   1. The scenario's `server <time> <command>` timeline: the network runs
//      to each command's simulated time, then executes it — a scripted,
//      fully deterministic serving session.
//   2. --script <file>: command lines executed after the timeline.
//   3. Interactive: stdin (line per command), plus any number of clients on
//      the --socket Unix socket.
//
// With a timeline or --script the process exits after executing them
// (exit 1 if any command failed) unless --serve asks it to keep serving.
// Plain `dbgp_server <scenario>` (or `--restore`) always serves.
//
// Socket framing: each command line yields a status line `ok` or
// `err <message>`, then the payload lines, then a lone `.` terminator —
// stdin sessions get the human-friendly payload only. `quit` ends a socket
// client's session; on stdin it (or EOF) stops the daemon.
//
// --restore boots the daemon from a RIB snapshot taken by the `snapshot`
// command: the restored Loc-RIB is bit-identical to the serving state the
// snapshot captured. --no-causal disables causal tracing (smaller memory
// footprint, but why/blame and health's convergence verdict go dark).
//
// --speaker-threads runs each speaker's decode/decision stages on a shared
// worker pool (effective with --batched, traced or not). Serving state and
// the causal trace stay bit-identical at any value, and
// `set speaker-threads <n>` changes it live between drains.
//
// --observe-interval turns on the observability plane (time-series sampling +
// event journal; also available live via the `observe` verb, and implied by a
// scenario's `observe` stanza or by --event-log). While serving, the poll
// loop wakes on a wall-clock cadence to keep the series fresh; `series`,
// `events`, `peers`, and `metrics-prom` expose the data. --event-log writes
// the journal as JSONL on exit.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "server/control.h"
#include "server/daemon.h"
#include "server/snapshot.h"
#include "scenario/parser.h"
#include "util/flags.h"

namespace {

using dbgp::server::CommandResult;
using dbgp::server::ControlApi;

struct SessionState {
  ControlApi* api = nullptr;
  bool quiet = false;
  bool any_error = false;
};

// stdin / script / timeline presentation: payload (unless quiet), errors to
// stderr; the process keeps going — a daemon does not die on a bad command.
bool run_line(SessionState& session, const std::string& line) {
  const CommandResult result = session.api->execute(line);
  if (!result.ok) {
    session.any_error = true;
    std::fprintf(stderr, "error: %s\n", result.text.c_str());
  } else if (!result.text.empty() && !session.quiet) {
    std::printf("%s\n", result.text.c_str());
    std::fflush(stdout);
  }
  return result.quit;
}

int make_listen_socket(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return -1;
  }
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n", path.c_str());
    ::close(fd);
    return -1;
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 8) < 0) {
    std::perror("bind/listen");
    ::close(fd);
    return -1;
  }
  return fd;
}

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return;  // client went away; the poll loop will reap it
    off += static_cast<std::size_t>(n);
  }
}

struct Client {
  int fd = -1;
  std::string buffer;
};

// Serves stdin and (optionally) a Unix socket until stdin EOF/quit.
int serve(dbgp::server::RouteServer& server, ControlApi& api,
          const std::string& socket_path, bool quiet) {
  SessionState stdin_session{&api, quiet, false};
  const int listen_fd = socket_path.empty() ? -1 : make_listen_socket(socket_path);
  if (!socket_path.empty() && listen_fd < 0) return 2;
  if (listen_fd >= 0 && !quiet) {
    std::printf("listening on %s\n", socket_path.c_str());
    std::fflush(stdout);
  }

  std::vector<Client> clients;
  std::string stdin_buffer;
  bool stdin_open = true;
  bool running = true;
  while (running && (stdin_open || listen_fd >= 0)) {
    std::vector<pollfd> fds;
    if (stdin_open) fds.push_back({STDIN_FILENO, POLLIN, 0});
    if (listen_fd >= 0) fds.push_back({listen_fd, POLLIN, 0});
    for (const auto& client : clients) fds.push_back({client.fd, POLLIN, 0});
    // With observation on, wake periodically so the time-series keeps
    // advancing while the console sits idle (wall-time cadence, sim-time
    // stamps — the sampler dedups when sim time has not moved). The `observe`
    // verb can toggle this live, so the timeout is recomputed per iteration.
    const int timeout_ms = server.sampler() != nullptr ? 250 : -1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) break;
    if (server.sampler() != nullptr) server.sampler()->sample(server.now());
    if (ready == 0) continue;

    std::size_t index = 0;
    if (stdin_open) {
      if (fds[index].revents != 0) {
        char chunk[4096];
        const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof(chunk));
        if (n <= 0) {
          stdin_open = false;
          running = false;  // stdin EOF stops the daemon
        } else {
          stdin_buffer.append(chunk, static_cast<std::size_t>(n));
          std::size_t nl;
          while ((nl = stdin_buffer.find('\n')) != std::string::npos) {
            const std::string line = stdin_buffer.substr(0, nl);
            stdin_buffer.erase(0, nl + 1);
            if (run_line(stdin_session, line)) {
              running = false;
              break;
            }
          }
        }
      }
      ++index;
    }
    if (listen_fd >= 0) {
      if (fds[index].revents != 0) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0) clients.push_back({fd, {}});
      }
      ++index;
    }
    for (std::size_t c = 0; c < clients.size() && index + c < fds.size(); ++c) {
      if (fds[index + c].revents == 0) continue;
      Client& client = clients[c];
      char chunk[4096];
      const ssize_t n = ::read(client.fd, chunk, sizeof(chunk));
      if (n <= 0) {
        ::close(client.fd);
        client.fd = -1;
        continue;
      }
      client.buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while (client.fd >= 0 && (nl = client.buffer.find('\n')) != std::string::npos) {
        const std::string line = client.buffer.substr(0, nl);
        client.buffer.erase(0, nl + 1);
        const CommandResult result = api.execute(line);
        std::string out = result.ok ? "ok\n" : "err " + result.text + "\n";
        if (result.ok && !result.text.empty()) out += result.text + "\n";
        out += ".\n";
        write_all(client.fd, out);
        if (result.quit) {
          ::close(client.fd);
          client.fd = -1;
        }
      }
    }
    std::erase_if(clients, [](const Client& c) { return c.fd < 0; });
  }

  for (const auto& client : clients) ::close(client.fd);
  if (listen_fd >= 0) {
    ::close(listen_fd);
    ::unlink(socket_path.c_str());
  }
  return stdin_session.any_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  dbgp::util::Flags flags;
  flags.allow({"restore", "script", "socket", "serve", "batched", "quiet", "no-causal",
               "speaker-threads", "observe-interval", "event-log"});
  std::string error;
  if (!flags.parse(argc, argv, error) || flags.positional().size() > 1 ||
      (flags.positional().empty() && !flags.has("restore"))) {
    if (!error.empty()) std::fprintf(stderr, "error: %s\n", error.c_str());
    std::fprintf(stderr,
                 "usage: dbgp_server [<scenario-file>] [--restore <snapshot>]\n"
                 "                   [--script <file>] [--socket <path>] [--serve]\n"
                 "                   [--batched] [--quiet] [--no-causal]\n"
                 "                   [--speaker-threads <n>]\n"
                 "                   [--observe-interval <s>] [--event-log <file>]\n");
    return 2;
  }

  try {
    dbgp::server::RouteServer::Options options;
    if (flags.get_bool("batched", false)) {
      options.delivery = dbgp::simnet::DeliveryMode::kBatched;
    }
    options.causal = !flags.get_bool("no-causal", false);
    if (flags.has("speaker-threads")) {
      const std::int64_t n = flags.get_int("speaker-threads", 1);
      if (n < 1) {
        std::fprintf(stderr, "error: --speaker-threads must be >= 1\n");
        return 2;
      }
      options.speaker_threads = static_cast<std::size_t>(n);
    }
    const std::string event_log_path = flags.get_string("event-log", "");
    if (flags.has("observe-interval")) {
      options.observe_interval = std::stod(flags.get_string("observe-interval", "0.5"));
      if (options.observe_interval <= 0.0) {
        std::fprintf(stderr, "error: --observe-interval must be > 0\n");
        return 2;
      }
    } else if (!event_log_path.empty()) {
      // --event-log implies observation; the scenario's `observe` stanza (if
      // any) re-shapes the interval at load() time.
      options.observe_interval = 0.5;
    }
    dbgp::server::RouteServer server(options);
    dbgp::server::ControlApi api(server);
    const bool quiet = flags.get_bool("quiet", false);
    SessionState session{&api, quiet, false};

    const std::string restore_path = flags.get_string("restore", "");
    std::vector<dbgp::scenario::ServerCmdDecl> timeline;
    if (!restore_path.empty()) {
      server.restore(dbgp::server::load_snapshot(restore_path));
      if (!quiet) {
        std::printf("restored %zu ASes from %s (t=%.3f)\n", server.as_numbers().size(),
                    restore_path.c_str(), server.now());
      }
    }
    if (!flags.positional().empty()) {
      if (!restore_path.empty()) {
        std::fprintf(stderr, "error: give a scenario or --restore, not both\n");
        return 2;
      }
      const auto scenario = dbgp::scenario::load_scenario(flags.positional()[0]);
      server.load(scenario);
      timeline = scenario.server_commands;
    }

    // 1. The scenario's deterministic command timeline.
    for (const auto& cmd : timeline) {
      server.run_until(cmd.at);
      if (!quiet) std::printf("t=%.3f> %s\n", cmd.at, cmd.command.c_str());
      run_line(session, cmd.command);
    }
    if (!timeline.empty()) server.run();

    // 2. A command script.
    const std::string script_path = flags.get_string("script", "");
    if (!script_path.empty()) {
      std::ifstream script(script_path);
      if (!script) {
        std::fprintf(stderr, "error: cannot open script %s\n", script_path.c_str());
        return 2;
      }
      std::string line;
      while (std::getline(script, line)) {
        if (run_line(session, line)) break;
      }
    }

    // On any exit path below, persist the event journal when asked.
    const auto write_event_log = [&]() -> bool {
      if (event_log_path.empty()) return true;
      if (server.event_log() == nullptr) {
        std::fprintf(stderr, "error: --event-log needs observation on\n");
        return false;
      }
      server.event_log()->write_jsonl(event_log_path);
      if (!quiet) {
        std::printf("event log written to %s (%zu events)\n", event_log_path.c_str(),
                    server.event_log()->size());
      }
      return true;
    };

    // 3. Keep serving unless this was a batch run.
    const bool batch = !timeline.empty() || !script_path.empty();
    if (batch && !flags.get_bool("serve", false)) {
      if (!write_event_log()) return 2;
      return session.any_error ? 1 : 0;
    }
    const int rc = serve(server, api, flags.get_string("socket", ""), quiet);
    if (!write_event_log()) return 2;
    return session.any_error ? 1 : rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
