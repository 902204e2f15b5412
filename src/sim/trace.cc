#include "sim/trace.h"

#include <cstdio>

#include "util/json.h"

namespace simt {

const char* to_string(TraceOp op) {
  switch (op) {
    case TraceOp::kCompute: return "compute";
    case TraceOp::kIdle: return "idle";
    case TraceOp::kLoad: return "load";
    case TraceOp::kStore: return "store";
    case TraceOp::kVecLoad: return "vload";
    case TraceOp::kVecStore: return "vstore";
    case TraceOp::kAtomic: return "atomic";
    case TraceOp::kVecAtomic: return "vatomic";
    case TraceOp::kLds: return "lds";
  }
  return "?";
}

namespace {

using scq::util::json_escape;

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Event& e : events_) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"wg%u\",\"ph\":\"X\",\"ts\":%llu,"
                  "\"dur\":%llu,\"pid\":%u,\"tid\":%u}",
                  to_string(e.op), e.workgroup,
                  static_cast<unsigned long long>(e.begin),
                  static_cast<unsigned long long>(e.end > e.begin ? e.end - e.begin
                                                                  : 0),
                  e.cu, e.slot);
    out += buf;
  }
  for (const Counter& c : counters_) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"C\",\"ts\":%llu,\"pid\":0,\"tid\":0,"
                  "\"args\":{\"value\":%.6g}}",
                  static_cast<unsigned long long>(c.cycle), c.value);
    out += "{\"name\":\"";
    out += json_escape(c.name);
    out += buf;
  }
  // Task lifetimes as nestable async spans on their executor's track;
  // the matching flow arrows bind each parent span to its children.
  for (const Async& a : asyncs_) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"task\",\"cat\":\"task\",\"ph\":\"b\","
                  "\"id\":\"0x%llx\",\"ts\":%llu,\"pid\":%u,\"tid\":%u,"
                  "\"args\":{\"ticket\":%llu,\"parent\":%lld,\"payload\":%llu}}",
                  static_cast<unsigned long long>(a.id),
                  static_cast<unsigned long long>(a.begin), a.pid, a.tid,
                  static_cast<unsigned long long>(a.id),
                  a.parent == ~std::uint64_t{0}
                      ? -1ll
                      : static_cast<long long>(a.parent),
                  static_cast<unsigned long long>(a.payload));
    out += buf;
    out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"task\",\"cat\":\"task\",\"ph\":\"e\","
                  "\"id\":\"0x%llx\",\"ts\":%llu,\"pid\":%u,\"tid\":%u}",
                  static_cast<unsigned long long>(a.id),
                  static_cast<unsigned long long>(a.end), a.pid, a.tid);
    out += buf;
  }
  for (const Flow& fl : flows_) {
    if (!first) out += ',';
    first = false;
    // The consuming end carries bp:"e" so the arrow binds to the
    // enclosing slice/span rather than the next one.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"spawn\",\"cat\":\"task_flow\",\"ph\":\"%s\","
                  "\"id\":\"0x%llx\",\"ts\":%llu,\"pid\":%u,\"tid\":%u%s}",
                  fl.start ? "s" : "f",
                  static_cast<unsigned long long>(fl.id),
                  static_cast<unsigned long long>(fl.cycle), fl.pid, fl.tid,
                  fl.start ? "" : ",\"bp\":\"e\"");
    out += buf;
  }
  // Run-metadata record (schedule seed etc.): a capture identifies the
  // configuration that produced it.
  if (!meta_.empty()) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"sim_meta\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{";
    bool first_kv = true;
    for (const auto& [key, value] : meta_) {
      if (!first_kv) out += ',';
      first_kv = false;
      out += '"';
      out += json_escape(key);
      out += "\":\"";
      out += json_escape(value);
      out += '"';
    }
    out += "}}";
  }
  // Metadata record: makes a truncated capture detectable from the file
  // alone (all-zero args == complete trace).
  if (!first) out += ',';
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"dropped\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                "\"args\":{\"slices\":%llu,\"counters\":%llu,\"flows\":%llu,"
                "\"windows\":%llu}}",
                static_cast<unsigned long long>(dropped_),
                static_cast<unsigned long long>(dropped_counters_),
                static_cast<unsigned long long>(dropped_flows_),
                static_cast<unsigned long long>(dropped_windows_));
  out += buf;
  out += "]}";
  return out;
}

bool TraceRecorder::write_chrome_json(const std::string& path) const {
  if (total_dropped() > 0) {
    std::fprintf(stderr,
                 "trace: %llu event(s) dropped past capacity (slices %llu, "
                 "counters %llu, flows %llu, windows %llu) — the export is "
                 "truncated\n",
                 static_cast<unsigned long long>(total_dropped()),
                 static_cast<unsigned long long>(dropped_),
                 static_cast<unsigned long long>(dropped_counters_),
                 static_cast<unsigned long long>(dropped_flows_),
                 static_cast<unsigned long long>(dropped_windows_));
  }
  return scq::util::write_file(path, to_chrome_json());
}

}  // namespace simt
