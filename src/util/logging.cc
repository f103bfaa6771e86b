#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

namespace gthinker {

namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<FatalHook> g_fatal_hook{nullptr};
std::mutex g_log_mutex;
std::mutex g_fatal_mutex;  // taken by the first fatal, held until abort
thread_local bool t_in_fatal_hook = false;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

void SetFatalHook(FatalHook hook) {
  g_fatal_hook.store(hook, std::memory_order_release);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelTag(level) << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  stream_ << "\n";
  const std::string line = stream_.str();
  {
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) {
    // One shot: a fatal raised while the hook itself runs must not recurse,
    // and one raised on another thread must not abort before the hook ends.
    if (!t_in_fatal_hook) {
      g_fatal_mutex.lock();
      t_in_fatal_hook = true;
      if (FatalHook hook = g_fatal_hook.load(std::memory_order_acquire)) {
        hook(line.c_str());
      }
    }
    std::abort();
  }
}

}  // namespace internal_logging
}  // namespace gthinker
