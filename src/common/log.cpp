#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace hc {

namespace {

// The level is read on every (possibly disabled) log statement from any
// ParallelExecutor worker, so it is atomic; workers write lines too, so
// writes serialize on a mutex to keep lines whole.
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::mutex g_write_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kOff: return "OFF";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kTrace: return "TRACE";
  }
  return "?";
}

}  // namespace

void Log::set_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel Log::level() { return g_level.load(std::memory_order_relaxed); }

void Log::write(LogLevel level, std::string_view msg) {
  std::lock_guard<std::mutex> lk(g_write_mutex);
  std::fprintf(stderr, "[%s] %.*s\n", level_tag(level),
               static_cast<int>(msg.size()), msg.data());
}

}  // namespace hc
