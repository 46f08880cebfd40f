#include "src/base/logging.h"

#include <cstdarg>

namespace camelot {

namespace {
TraceLevel g_trace_level = TraceLevel::kOff;
}  // namespace

void SetTraceLevel(TraceLevel level) { g_trace_level = level; }

void TraceLine(TraceLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) > static_cast<int>(g_trace_level)) {
    return;
  }
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fputc('\n', stderr);
}

void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace camelot
