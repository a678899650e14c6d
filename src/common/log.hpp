// Minimal leveled logger.
//
// The simulator is single-threaded and deterministic, so the logger is
// deliberately simple: a process-global level, lines to stderr. Tests set
// the level to kOff; examples raise it to kInfo to narrate protocol runs.
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace hc {

enum class LogLevel { kOff = 0, kError, kWarn, kInfo, kDebug, kTrace };

class Log {
 public:
  static void set_level(LogLevel level);
  [[nodiscard]] static LogLevel level();

  static void write(LogLevel level, std::string_view msg);

  [[nodiscard]] static bool enabled(LogLevel level) {
    const LogLevel cur = Log::level();
    return cur != LogLevel::kOff && level <= cur;
  }
};

/// Stream-style log statement builder:
///   LogLine(LogLevel::kInfo) << "subnet " << id << " spawned";
///   LogLine(LogLevel::kWarn, subnet_str).kv("height", h) << "stalled";
///
/// The enabled bit is captured once at construction — a disabled line costs
/// one level read, with no per-insertion re-checks.
class LogLine {
 public:
  explicit LogLine(LogLevel level) : enabled_(Log::enabled(level)),
                                     level_(level) {}
  /// `scope` prefixes the line as "[scope] " — conventionally the subnet id.
  LogLine(LogLevel level, std::string_view scope)
      : enabled_(Log::enabled(level)), level_(level) {
    if (enabled_) out_ << '[' << scope << "] ";
  }
  ~LogLine() {
    if (enabled_) Log::write(level_, out_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (enabled_) out_ << v;
    return *this;
  }

  /// Append a structured " key=value" field.
  template <typename T>
  LogLine& kv(std::string_view key, const T& value) {
    if (enabled_) out_ << ' ' << key << '=' << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream out_;
};

}  // namespace hc
