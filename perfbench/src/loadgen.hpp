// loadgen.hpp -- the serve workloads' daemon process and open-loop client.
//
// Daemon runs the real ndetd binary as a child process listening on an
// ephemeral loopback port, and stops it with the graceful SIGTERM drain;
// its peak resident memory comes from the child's rusage.
//
// OpenLoopClient is one generator thread over at most nproc pipelined
// connections; it polls without sleeping, for the reason IdleSpinners
// gives.  Requests are due on a fixed schedule (rate r: request i is
// due at start + i/r) whatever the server does, and each is timed from its
// due time, so a stall shows in every request that was due while it
// lasted.  How late the generator itself sent each request is recorded
// too, and a step during which it fell behind is marked invalid.

#pragma once

#include <sched.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// The generator gets one CPU of its own and the daemon the rest, so a
/// CPU-saturated daemon cannot delay the generator's sends (lateness would
/// be charged to the server).  With a single CPU both share it.
struct CpuSplit {
  cpu_set_t generator;
  cpu_set_t daemon;
  unsigned daemon_cpus = 1;
};

CpuSplit split_cpus();

/// Restricts the calling thread to `cpus`.
void pin_calling_thread(const cpu_set_t& cpus);

/// Keeps `cpus` from going idle while it lives: one SCHED_IDLE busy thread
/// per CPU, which runs only when nothing else wants that CPU.  An idle
/// virtual CPU halts, and on a busy host it can take milliseconds before
/// the hypervisor runs it again when work arrives; that wake-up delay, not
/// the daemon, would otherwise set the tail latency.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

class Daemon {
 public:
  /// Starts `binary` with `args`, restricted to `cpus` when non-null.
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const cpu_set_t* cpus = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// SIGTERM, then waits for the drain (SIGKILL after a grace period).
  /// Returns the child's peak resident set in MiB; true in *clean when it
  /// exited with status 0.
  double stop(bool* clean);

 private:
  void wait_for_port();
  void kill_child();

  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

/// One response as the client saw it.
struct Response {
  std::uint64_t id = 0;
  bool ok = false;
  double elapsed_ms = 0.0;      ///< the server's own elapsed_ms
  std::uint64_t result_hash = 0;
  std::size_t result_size = 0;
};

/// One request of a step: its line and what it is checked against.
struct Planned {
  std::string line;  ///< without the trailing newline
  std::uint32_t key = 0;  ///< index of the expected result
};

struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;  ///< 0 when no response arrived
  std::uint32_t key = 0;
  bool ok = false;
  double elapsed_ms = 0.0;
  std::uint64_t result_hash = 0;
  std::size_t result_size = 0;
};

/// The machine's cumulative stolen CPU time at one instant.
struct StealSample {
  std::int64_t at_ns = 0;
  double stolen_s = 0.0;  ///< summed over CPUs, from /proc/stat
};

struct StepRecord {
  double rate = 0.0;
  std::vector<RequestRecord> requests;  ///< in due order
  std::size_t backlog_end = 0;  ///< sent - completed at the last due time
  std::vector<double> ping_rtt_us;  ///< ping probes sent during the step
  std::vector<StealSample> steal;   ///< sampled every 50 ms

  /// Share of the machine's CPU time stolen between two instants of the
  /// step (measured between the samples bracketing them).
  double steal_share(std::int64_t from_ns, std::int64_t to_ns) const;
};

/// Payload digest used to compare response results (8 bytes at a time).
std::uint64_t payload_hash(const char* data, std::size_t size);

class OpenLoopClient {
 public:
  /// Connects `connections` sockets to 127.0.0.1:port.
  OpenLoopClient(int port, unsigned connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  /// Offers `requests` at `rate` per second, round-robin over the
  /// connections, and waits for every response (up to `timeout_s` past the
  /// last due time; a request still unanswered then has done_ns = 0).
  /// With `ping_every` > 0 a ping probe is sent after every ping_every-th
  /// request on the same connection.
  StepRecord run_step(const std::vector<Planned>& requests, double rate,
                      double timeout_s, std::size_t ping_every = 0);

  /// Sends one line on the first connection and returns its response line
  /// (blocking; for stats probes between steps).
  std::string call(const std::string& line);

 private:
  struct Conn;
  using LineHandler =
      std::function<void(const char* line, std::size_t size, std::int64_t read_ns)>;
  /// Polls every connection once, without blocking, and hands each
  /// complete response line to `on_line` with the time it was read.
  void pump(const LineHandler& on_line);

  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Parses the envelope fields of one response line.
Response parse_response(const char* line, std::size_t size);

}  // namespace perfbench
