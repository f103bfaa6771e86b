#ifndef GTHINKER_UTIL_LOGGING_H_
#define GTHINKER_UTIL_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace gthinker {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

/// Global minimum level; messages below it are dropped. Default kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Called with the formatted log line just before a kFatal message aborts
/// the process; gives subsystems (e.g. the flight recorder) one chance to
/// dump diagnostic state. The hook runs at most once per process — nested
/// fatals inside the hook skip straight to abort, and a fatal on another
/// thread waits until the hook is done. nullptr clears it.
using FatalHook = void (*)(const char* message);
void SetFatalHook(FatalHook hook);

namespace internal_logging {

/// Stream-style log line collector. Emits (thread-safely) on destruction;
/// aborts the process for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

/// Swallows the streamed expression when the log level filters it out.
struct LogMessageVoidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace gthinker

#define GT_LOG_INTERNAL(level)                                        \
  ::gthinker::internal_logging::LogMessage(level, __FILE__, __LINE__) \
      .stream()

#define LOG_DEBUG                                                \
  (::gthinker::GetLogLevel() > ::gthinker::LogLevel::kDebug)     \
      ? (void)0                                                  \
      : ::gthinker::internal_logging::LogMessageVoidify() &      \
            GT_LOG_INTERNAL(::gthinker::LogLevel::kDebug)
#define LOG_INFO                                                 \
  (::gthinker::GetLogLevel() > ::gthinker::LogLevel::kInfo)      \
      ? (void)0                                                  \
      : ::gthinker::internal_logging::LogMessageVoidify() &      \
            GT_LOG_INTERNAL(::gthinker::LogLevel::kInfo)
#define LOG_WARNING                                              \
  (::gthinker::GetLogLevel() > ::gthinker::LogLevel::kWarning)   \
      ? (void)0                                                  \
      : ::gthinker::internal_logging::LogMessageVoidify() &      \
            GT_LOG_INTERNAL(::gthinker::LogLevel::kWarning)
#define LOG_ERROR GT_LOG_INTERNAL(::gthinker::LogLevel::kError)
#define LOG_FATAL GT_LOG_INTERNAL(::gthinker::LogLevel::kFatal)

/// Invariant checks: always on (they guard correctness of concurrent state
/// machines, not user input). Failure logs the expression and aborts.
#define GT_CHECK(cond)                                       \
  while (!(cond)) LOG_FATAL << "Check failed: " #cond " "

#define GT_CHECK_OP(op, a, b)                                              \
  while (!((a)op(b)))                                                      \
  LOG_FATAL << "Check failed: " #a " " #op " " #b " (" << (a) << " vs "    \
            << (b) << ") "

#define GT_CHECK_EQ(a, b) GT_CHECK_OP(==, a, b)
#define GT_CHECK_NE(a, b) GT_CHECK_OP(!=, a, b)
#define GT_CHECK_LT(a, b) GT_CHECK_OP(<, a, b)
#define GT_CHECK_LE(a, b) GT_CHECK_OP(<=, a, b)
#define GT_CHECK_GT(a, b) GT_CHECK_OP(>, a, b)
#define GT_CHECK_GE(a, b) GT_CHECK_OP(>=, a, b)

/// Checks that a Status-returning expression is OK.
#define GT_CHECK_OK(expr)                                        \
  do {                                                           \
    ::gthinker::Status _gt_st = (expr);                          \
    GT_CHECK(_gt_st.ok()) << _gt_st.ToString();                  \
  } while (0)

#endif  // GTHINKER_UTIL_LOGGING_H_
