#include "serve_client.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <thread>

#include "api/request.h"
#include "support/diag.h"
#include "workloads/workload.h"

namespace perfbench {

namespace sw = spmwcet;
using sw::harness::MemSetup;

namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<uint32_t> kSizes = {64, 128, 256, 512, 1024, 2048, 4096, 8192};

} // namespace

ServerProcess::ServerProcess(const std::string& cli,
                             const std::string& socket_path,
                             const std::string& log_path) {
  ::unlink(socket_path.c_str());
  pid_ = ::fork();
  if (pid_ < 0) throw sw::Error("perfbench: fork failed");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    const int null = ::open("/dev/null", O_RDONLY);
    if (null >= 0) ::dup2(null, STDIN_FILENO);
    ::execl(cli.c_str(), cli.c_str(), "serve", "--socket", socket_path.c_str(),
            "--jobs", "1", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw sw::Error("perfbench: the server exited before listening (see " +
                      log_path + ")");
    }
    try {
      sw::support::net::Socket probe = sw::support::net::connect_unix(socket_path);
      break;
    } catch (const std::exception&) {
    }
    if (std::chrono::steady_clock::now() > give_up) {
      stop();
      throw sw::Error("perfbench: the server did not listen within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) stop();
}

double peak_rss_mb(const std::string& pid) {
  // VmHWM belongs to the address space, so unlike getrusage's ru_maxrss
  // it does not carry over the high-water mark of a process that exec'd.
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double ServerProcess::stop() {
  if (pid_ <= 0) return 0.0;
  const double rss = peak_rss_mb(std::to_string(pid_));
  ::kill(pid_, SIGTERM);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return rss;
}

std::optional<ServeSummary> read_serve_summary(std::istream& log) {
  // "serve: N requests (N ok, 0 errors), H response-cache hits, ..."
  const std::regex line_re(R"(serve: (\d+) requests .*, (\d+) response-cache hits)");
  std::string line;
  std::smatch m;
  while (std::getline(log, line))
    if (std::regex_search(line, m, line_re))
      return ServeSummary{std::stoll(m[1]), std::stoll(m[2])};
  return std::nullopt;
}

Client::Client(const std::string& socket_path)
    : sock_(sw::support::net::connect_unix(socket_path)), reader_(sock_.fd()) {}

std::string Client::call(const std::string& line) {
  buf_.assign(line);
  buf_.push_back('\n');
  if (!sw::support::net::send_all(sock_.fd(), buf_))
    throw sw::Error("perfbench: the server closed the connection");
  std::string response;
  if (!reader_.read_line(response))
    throw sw::Error("perfbench: the server closed the connection");
  return response;
}

ServeStream::ServeStream(uint64_t seed) : rng_(seed ^ 0x5e12e5ull) {
  programs_ = sw::workloads::paper_benchmark_names();
  for (const char* shape : {"mixed", "loopy"})
    for (uint32_t i = 1; i <= kPoolMembers; ++i)
      programs_.push_back(std::string("gen:") + shape + ":" + std::to_string(i));
  for (const std::string& prog : programs_)
    for (const MemSetup setup : {MemSetup::Scratchpad, MemSetup::Cache})
      for (const uint32_t size : kSizes) pool_.push_back({prog, setup, size});
  for (std::size_t i = pool_.size(); i > 1; --i)
    std::swap(pool_[i - 1], pool_[splitmix64(rng_) % i]);
}

std::size_t ServeStream::next(bool* repeat) {
  const bool is_repeat = issued_++ % kRoundSize == kRoundSize - 1;
  if (repeat != nullptr) *repeat = is_repeat;
  if (is_repeat) {
    const std::size_t window = std::min(recent_.size(), kRepeatWindow);
    return recent_[(fresh_ - 1 - splitmix64(rng_) % window) % kRepeatWindow];
  }
  const std::size_t idx = fresh_ % pool_.size();
  if (recent_.size() < kRepeatWindow)
    recent_.push_back(idx);
  else
    recent_[fresh_ % kRepeatWindow] = idx;
  ++fresh_;
  return idx;
}

std::string point_line(int64_t id, const StreamKey& k) {
  return "{\"v\":1,\"id\":" + std::to_string(id) +
         ",\"op\":\"point\",\"workload\":\"" + k.workload +
         "\",\"setup\":\"" + sw::api::setup_name(k.setup) +
         "\",\"size\":" + std::to_string(k.size) + "}";
}

} // namespace perfbench
