#include "sim/task_trace.h"

#include <cstdio>

#include "util/json.h"

namespace simt {

namespace {

using scq::util::json_escape;

}  // namespace

void TaskTrace::set_meta(std::string key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  meta_.emplace_back(std::move(key), std::move(value));
}

std::string TaskTrace::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"meta\":{";
  bool first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(key);
    out += "\":\"";
    out += json_escape(value);
    out += '"';
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "},\"dropped\":%llu,\"events\":[",
                static_cast<unsigned long long>(dropped_));
  out += buf;
  first = true;
  for (const TaskEvent& e : events_) {
    if (!first) out += ',';
    first = false;
    // kNoTask parents export as -1 so consumers need no sentinel lore.
    std::snprintf(buf, sizeof(buf),
                  "{\"phase\":\"%s\",\"ticket\":%llu,\"parent\":%lld,"
                  "\"payload\":%llu,\"actor\":%llu,\"cu\":%u,\"cycle\":%llu}",
                  to_string(e.phase),
                  static_cast<unsigned long long>(e.ticket),
                  e.parent == kNoTask
                      ? -1ll
                      : static_cast<long long>(e.parent),
                  static_cast<unsigned long long>(e.payload),
                  static_cast<unsigned long long>(e.actor), e.cu,
                  static_cast<unsigned long long>(e.cycle));
    out += buf;
  }
  out += "]}";
  return out;
}

bool TaskTrace::write_json(const std::string& path) const {
  if (const std::uint64_t n = dropped(); n > 0) {
    std::fprintf(stderr,
                 "task trace: %llu event(s) dropped past capacity — raise the "
                 "TaskTrace capacity for a complete causality DAG\n",
                 static_cast<unsigned long long>(n));
  }
  return scq::util::write_file(path, to_json());
}

}  // namespace simt
