#include "gridsec/obs/log.hpp"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <mutex>
#include <sstream>

#include "gridsec/obs/metrics.hpp"
#include "json.hpp"

namespace gridsec::obs {
namespace {

LogLevel level_from_env_or(LogLevel fallback) {
  const char* env = std::getenv("GRIDSEC_LOG_LEVEL");
  if (env == nullptr) return fallback;
  LogLevel parsed;
  if (!parse_log_level(env, &parsed)) return fallback;
  return parsed;
}

bool stderr_from_env() {
  const char* env = std::getenv("GRIDSEC_LOG_STDERR");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

struct LoggerState {
  // Hot-path gate; everything else is cold and sits behind the mutex.
  std::atomic<int> threshold;

  std::mutex mu;
  std::deque<std::string> ring;  // oldest first, bounded by ring capacity
  bool stderr_sink;

  LoggerState()
      : threshold(static_cast<int>(level_from_env_or(LogLevel::kInfo))),
        stderr_sink(stderr_from_env()) {}
};

LoggerState& state() {
  // Leaked on purpose: detached/worker threads may log during static
  // destruction, and an intact logger beats a destructed one.
  static LoggerState* s = new LoggerState();
  return *s;
}

}  // namespace

std::string_view to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "unknown";
}

bool parse_log_level(std::string_view text, LogLevel* out) {
  std::string lower(text);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  for (const LogLevel level :
       {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo, LogLevel::kWarn,
        LogLevel::kError, LogLevel::kOff}) {
    if (lower == to_string(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

bool Logger::enabled(LogLevel level) {
  return static_cast<int>(level) >=
             state().threshold.load(std::memory_order_relaxed) &&
         level != LogLevel::kOff;
}

void Logger::set_level(LogLevel level) {
  state().threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel Logger::level() {
  return static_cast<LogLevel>(
      state().threshold.load(std::memory_order_relaxed));
}

std::vector<std::string> Logger::tail(std::size_t max_records) {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = s.ring.size();
  if (max_records != 0 && max_records < n) n = max_records;
  return std::vector<std::string>(s.ring.end() - static_cast<long>(n),
                                  s.ring.end());
}

void Logger::reset_ring() {
  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.ring.clear();
}

void Logger::emit(LogLevel level, std::string line) {
  static Counter& records = default_registry().counter("obs.log.records");
  static Counter& errors = default_registry().counter("obs.log.records.error");
  records.add();
  if (level >= LogLevel::kError) errors.add();

  LoggerState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.stderr_sink) std::cerr << line << '\n';
  s.ring.push_back(std::move(line));
  while (s.ring.size() > kDefaultRingCapacity) s.ring.pop_front();
}

LogEvent::LogEvent(LogLevel level, std::string_view component)
    : level_(level) {
  std::ostringstream os;
  os << "{\"ts\":\"" << json::utc_now_iso8601(/*millis=*/true)
     << "\",\"level\":\""
     << to_string(level) << "\",\"component\":";
  json::write_string(os, component);
  line_ = os.str();
}

LogEvent::~LogEvent() {
  std::ostringstream os;
  os << line_;
  if (!msg_.empty()) {
    os << ",\"msg\":";
    json::write_string(os, msg_);
  }
  os << '}';
  Logger::emit(level_, os.str());
}

LogEvent& LogEvent::field(std::string_view key, std::string_view value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, key);
  os << ':';
  json::write_string(os, value);
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, double value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, key);
  os << ':';
  json::write_number(os, value);
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::int_field(std::string_view key, std::int64_t value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, key);
  os << ':' << value;
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::uint_field(std::string_view key, std::uint64_t value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, key);
  os << ':' << value;
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::field(std::string_view key, bool value) {
  std::ostringstream os;
  os << ',';
  json::write_string(os, key);
  os << ':' << (value ? "true" : "false");
  line_ += os.str();
  return *this;
}

LogEvent& LogEvent::message(std::string_view msg) {
  msg_ = std::string(msg);
  return *this;
}

}  // namespace gridsec::obs
