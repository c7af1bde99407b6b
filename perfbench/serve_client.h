// The serve-points workload's plumbing: a resident `spmwcet_cli serve
// --socket` child process, a closed-loop client, and the seeded request
// stream.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "support/socket.h"

namespace perfbench {

/// A `serve --socket` child. The constructor returns once the socket
/// accepts connections; stop() (or the destructor) sends SIGTERM and
/// waits for the child to end.
class ServerProcess {
public:
  ServerProcess(const std::string& cli, const std::string& socket_path,
                const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Stops the child and returns its peak resident set in MiB.
  double stop();

private:
  pid_t pid_ = -1;
};

/// Peak resident set of a live process ("self" or a pid) in MiB, from
/// /proc/<pid>/status VmHWM.
double peak_rss_mb(const std::string& pid);

/// What a stopped server logs about its session.
struct ServeSummary {
  int64_t requests = 0;
  int64_t response_hits = 0;
};

/// The summary line of a server log, or nullopt when it holds none.
std::optional<ServeSummary> read_serve_summary(std::istream& log);

/// One connection, one request in flight at a time.
class Client {
public:
  explicit Client(const std::string& socket_path);
  /// Sends one request line and returns the response line; throws
  /// spmwcet::Error when the server closes the connection.
  std::string call(const std::string& line);

private:
  spmwcet::support::net::Socket sock_;
  spmwcet::support::net::LineReader reader_;
  std::string buf_;
};

struct StreamKey {
  std::string workload;
  spmwcet::harness::MemSetup setup = spmwcet::harness::MemSetup::Scratchpad;
  uint32_t size = 0;
};

/// The seeded serve-points request stream.
///
/// The pool is the paper trio plus gen:mixed and gen:loopy seeds
/// [1, kPoolMembers], each under both setups at the eight paper sizes, in
/// one order shuffled by the seed. The programs are fixed: some generated
/// programs make the scratchpad allocation run for minutes, and a pool
/// drawn by seed would hang on the seeds that draw one. The stream walks
/// that order cyclically in rounds of three fresh requests and one repeat
/// of a request among the last kRepeatWindow fresh ones. The pool holds
/// more keys than the server's response cache (1024), so a fresh request
/// always misses it and is computed on warm artifacts, while a repeat
/// always hits it: the repeat share is exactly one in four. The mix is
/// chosen, not taken from recorded traffic, and every run checks the
/// server's hit count against it.
class ServeStream {
public:
  static constexpr uint32_t kPoolMembers = 40;
  static constexpr std::size_t kRepeatWindow = 64;
  static constexpr std::size_t kRoundSize = 4;

  explicit ServeStream(uint64_t seed);

  const std::vector<StreamKey>& pool() const { return pool_; }
  /// Every program the pool uses.
  const std::vector<std::string>& programs() const { return programs_; }
  /// Pool index of the next request, and whether it repeats an earlier one.
  std::size_t next(bool* repeat = nullptr);
  /// Fresh requests issued so far.
  std::size_t fresh() const { return fresh_; }

private:
  std::vector<StreamKey> pool_;
  std::vector<std::string> programs_;
  std::vector<std::size_t> recent_; ///< ring of recent fresh pool indices
  std::size_t fresh_ = 0;
  std::size_t issued_ = 0;
  uint64_t rng_;
};

/// The wire request line for one pool key.
std::string point_line(int64_t id, const StreamKey& k);

} // namespace perfbench
