// Leveled logging with a global threshold; thread-safe line emission.
//
// Pool workers, service executors and concurrent run_pmm callers log from
// separate threads, so log lines must not interleave mid-line; a
// process-wide mutex serialises emission.
#pragma once

#include <sstream>
#include <string>

namespace summagen::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the minimum level that will be emitted (default: kWarn, so library
/// code is silent in tests/benches unless something is wrong).
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits one line to stderr if `level` passes the threshold.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

#define SG_LOG_DEBUG() ::summagen::util::detail::LogStream(::summagen::util::LogLevel::kDebug)
#define SG_LOG_INFO() ::summagen::util::detail::LogStream(::summagen::util::LogLevel::kInfo)
#define SG_LOG_WARN() ::summagen::util::detail::LogStream(::summagen::util::LogLevel::kWarn)
#define SG_LOG_ERROR() ::summagen::util::detail::LogStream(::summagen::util::LogLevel::kError)

}  // namespace summagen::util
