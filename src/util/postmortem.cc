#include "util/postmortem.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>

namespace scq::util {

namespace {

// Ticket band encoding (core/queue.h kTokenBits): the analyzer must not
// depend on simulator headers, so the constant is restated here and
// pinned by tests against real mq dumps.
constexpr unsigned kTicketBandShift = 48;
constexpr std::uint64_t kTicketLocalMask =
    (std::uint64_t{1} << kTicketBandShift) - 1;

std::uint64_t u64(const JsonValue& v) {
  return v.number < 0 ? 0 : static_cast<std::uint64_t>(v.number);
}

std::uint64_t field(const JsonValue& obj, const std::string& key) {
  return u64(obj.at(key));
}

bool known_kind(const std::string& k) {
  static const std::set<std::string> kinds = {
      "reserve",    "write",  "claim", "deliver", "complete",
      "band-close", "router", "note"};
  return kinds.count(k) != 0;
}

std::string device_label(const JsonValue& device, std::size_t index) {
  const std::string& name = device.at("name").str;
  return name.empty() ? "dev" + std::to_string(index) : name;
}

// -------- validation --------------------------------------------------

std::string validate(const JsonValue& dump) {
  if (dump.kind != JsonValue::Kind::kObject ||
      field(dump, "blackbox") != 1) {
    return "not a black-box document (missing blackbox:1)";
  }
  if (dump.at("reason").kind != JsonValue::Kind::kString) {
    return "missing abort reason";
  }
  const JsonValue& devices = dump.at("devices");
  if (devices.kind != JsonValue::Kind::kArray || devices.array.empty()) {
    return "no devices";
  }
  for (std::size_t d = 0; d < devices.array.size(); ++d) {
    const JsonValue& dev = devices.array[d];
    const std::string label = device_label(dev, d);
    const JsonValue& q = dev.at("queue");
    if (q.kind == JsonValue::Kind::kObject) {
      if (field(q, "capacity") == 0) return label + " queue: zero capacity";
      const JsonValue& bands = q.at("bands");
      if (bands.kind != JsonValue::Kind::kArray || bands.array.empty()) {
        return label + " queue: no bands";
      }
      if (field(q, "closure_frontier") > bands.array.size()) {
        return label + " queue: closure frontier beyond band count";
      }
      for (const JsonValue& b : bands.array) {
        const std::uint64_t front = field(b, "front");
        const std::uint64_t rear = field(b, "rear");
        const std::uint64_t completed = field(b, "completed");
        const std::string bl = label + " band " + std::to_string(field(b, "band"));
        if (completed > rear) return bl + ": completed exceeds rear";
        const std::uint64_t occ = rear > front ? rear - front : 0;
        if (field(b, "occupancy") != occ) return bl + ": occupancy mismatch";
      }
    } else if (q.kind != JsonValue::Kind::kNull) {
      return label + ": queue is neither object nor null";
    }
    const JsonValue& rec = dev.at("recorder");
    if (rec.kind == JsonValue::Kind::kObject) {
      if (field(rec, "flight_recorder") != 1) {
        return label + " recorder: bad magic";
      }
      if (field(rec, "recorded") < field(rec, "dropped")) {
        return label + " recorder: recorded < dropped";
      }
      const JsonValue& events = rec.at("events");
      if (events.kind != JsonValue::Kind::kArray) {
        return label + " recorder: events not an array";
      }
      if (events.array.size() > field(rec, "capacity")) {
        return label + " recorder: more events than ring capacity";
      }
      std::map<std::uint64_t, std::uint64_t> last_seq;  // src -> seq + 1
      for (const JsonValue& e : events.array) {
        if (!known_kind(e.at("kind").str)) {
          return label + " recorder: unknown event kind '" +
                 e.at("kind").str + "'";
        }
        const std::uint64_t src = field(e, "src");
        const std::uint64_t seq = field(e, "seq");
        auto it = last_seq.find(src);
        if (it != last_seq.end() && seq < it->second) {
          return label + " recorder: non-monotone sequence numbers";
        }
        last_seq[src] = seq + 1;
      }
    } else if (rec.kind != JsonValue::Kind::kNull) {
      return label + ": recorder is neither object nor null";
    }
  }
  const JsonValue& rings = dump.at("rings");
  if (rings.kind != JsonValue::Kind::kArray) return "rings not an array";
  for (const JsonValue& r : rings.array) {
    const std::uint64_t front = field(r, "front");
    const std::uint64_t rear = field(r, "rear");
    if (rear < front) return "ring: rear behind front";
    if (field(r, "backlog") != rear - front) {
      return "ring: backlog arithmetic broken";
    }
    if (field(r, "capacity") == 0) return "ring: zero capacity";
  }
  const JsonValue& router = dump.at("router");
  if (router.kind != JsonValue::Kind::kNull &&
      router.kind != JsonValue::Kind::kObject) {
    return "router is neither object nor null";
  }
  return {};
}

// -------- wait-for graph + verdicts -----------------------------------

struct MonitorEntry {
  std::uint32_t actor = 0;
  std::uint64_t band = 0;
};
struct ParkedEntry {
  std::uint32_t actor = 0;
  std::uint64_t unit = 0;
  std::uint64_t ticket = 0;
  std::uint64_t band = 0;
  std::uint64_t token = 0;
};

void analyze_device(const JsonValue& dev, std::size_t index,
                    PostmortemReport& report) {
  const std::string label = device_label(dev, index);
  const JsonValue& q = dev.at("queue");
  const JsonValue& rec = dev.at("recorder");
  if (q.kind != JsonValue::Kind::kObject) return;

  const std::uint64_t per_band = std::max<std::uint64_t>(
      field(q, "per_band_capacity"), 1);
  const JsonValue& bands = q.at("bands");
  auto band_word = [&](std::uint64_t b, const char* key) -> std::uint64_t {
    return b < bands.array.size() ? field(bands.array[b], key) : 0;
  };

  // Index the wait tables (main queue only; unit >= 1 is a transfer
  // ring handled below).
  std::map<std::uint64_t, MonitorEntry> monitors;  // ticket -> monitor
  std::vector<ParkedEntry> parked;
  if (rec.kind == JsonValue::Kind::kObject) {
    for (const JsonValue& m : rec.at("monitors").array) {
      if (field(m, "unit") != 0) continue;
      monitors[field(m, "ticket")] = {
          static_cast<std::uint32_t>(field(m, "actor")), field(m, "band")};
    }
    for (const JsonValue& p : rec.at("parked").array) {
      parked.push_back({static_cast<std::uint32_t>(field(p, "actor")),
                        field(p, "unit"), field(p, "ticket"),
                        field(p, "band"), field(p, "token")});
    }
  }

  // wave -> wave adjacency: a parked reservation waits on the previous
  // epoch's ticket in the same slot; that ticket's outstanding monitor
  // names the wave holding the slot open.
  std::map<std::uint32_t, std::set<std::uint32_t>> adj;
  std::set<std::uint32_t> parked_actors;
  for (const ParkedEntry& p : parked) {
    if (p.unit != 0) {
      const std::uint64_t dst = p.unit - 1;
      report.wait_edges.push_back(
          label + " wave " + std::to_string(p.actor) +
          " parked on transfer ring ->dev" + std::to_string(dst) +
          " ticket " + std::to_string(p.ticket) + " (token " +
          std::to_string(p.token) + "): awaits host drain");
      continue;
    }
    parked_actors.insert(p.actor);
    const std::uint64_t local = p.ticket & kTicketLocalMask;
    const std::string head = label + " wave " + std::to_string(p.actor) +
                             " parked on ticket " + std::to_string(p.ticket) +
                             " (band " + std::to_string(p.band) + ", token " +
                             std::to_string(p.token) + ")";
    if (local < per_band) {
      report.wait_edges.push_back(
          head + ": first-epoch slot — transient or corrupt state");
      continue;
    }
    const std::uint64_t blocker = p.ticket - per_band;
    const std::uint64_t blocker_local = blocker & kTicketLocalMask;
    const auto mon = monitors.find(blocker);
    if (mon != monitors.end()) {
      report.wait_edges.push_back(
          head + " -> slot held by ticket " + std::to_string(blocker) +
          ", monitored by wave " + std::to_string(mon->second.actor));
      adj[p.actor].insert(mon->second.actor);
    } else if (blocker_local >= band_word(p.band, "front")) {
      report.wait_edges.push_back(
          head + " -> slot held by ticket " + std::to_string(blocker) +
          ", never claimed (front=" +
          std::to_string(band_word(p.band, "front")) + ")");
      report.verdicts.push_back(
          label + ": wave " + std::to_string(p.actor) +
          " blocked on ticket " + std::to_string(p.ticket) + " (band " +
          std::to_string(p.band) + ") by ticket " + std::to_string(blocker) +
          " — written but never claimed: consumers starved or absent "
          "(publish backpressure deadlock)");
    } else {
      report.wait_edges.push_back(
          head + " -> slot held by ticket " + std::to_string(blocker) +
          ", already delivered — stale parked entry");
    }
  }

  // Blocking cycles among waves: park -> monitor-holder -> its parks.
  // Only waves that are themselves parked can propagate the wait, so
  // restrict the cycle search to them.
  std::set<std::uint32_t> on_path, done;
  std::vector<std::uint32_t> path;
  std::function<bool(std::uint32_t)> dfs = [&](std::uint32_t a) -> bool {
    if (on_path.count(a)) {
      // Render the cycle from its first occurrence on the path.
      auto start = std::find(path.begin(), path.end(), a);
      std::string line = label + " blocking cycle: ";
      for (auto it = start; it != path.end(); ++it) {
        line += "wave " + std::to_string(*it) + " -> ";
      }
      line += "wave " + std::to_string(a) +
              " (publish backpressure deadlock)";
      report.verdicts.push_back(line);
      return true;
    }
    if (done.count(a)) return false;
    on_path.insert(a);
    path.push_back(a);
    bool found = false;
    auto it = adj.find(a);
    if (it != adj.end()) {
      for (std::uint32_t nxt : it->second) {
        if (!parked_actors.count(nxt)) continue;  // wait chain ends there
        if (dfs(nxt)) {
          found = true;
          break;
        }
      }
    }
    path.pop_back();
    on_path.erase(a);
    done.insert(a);
    return found;
  };
  for (const auto& [actor, _] : adj) {
    if (dfs(actor)) break;  // one named cycle is enough per device
  }

  // Claim-ahead monitors: a wave legally claimed past Rear and waits
  // for a producer; if the band can never grow again that wave starves.
  for (const auto& [ticket, mon] : monitors) {
    const std::uint64_t local = ticket & kTicketLocalMask;
    const std::uint64_t rear = band_word(mon.band, "rear");
    if (local < rear) continue;
    const std::uint64_t frontier = field(q, "closure_frontier");
    const bool closed = mon.band < frontier;
    report.wait_edges.push_back(
        label + " wave " + std::to_string(mon.actor) +
        " monitors ticket " + std::to_string(ticket) + " (band " +
        std::to_string(mon.band) + ") beyond rear " + std::to_string(rear));
    report.verdicts.push_back(
        label + ": wave " + std::to_string(mon.actor) +
        " claim-ahead on ticket " + std::to_string(ticket) + " in " +
        (closed ? "CLOSED" : "starved") + " band " +
        std::to_string(mon.band) +
        " — no producer will reach it (starved band)");
  }

  // Outstanding work per band: reserved but never completed.
  for (const JsonValue& b : bands.array) {
    const std::uint64_t rear = field(b, "rear");
    const std::uint64_t completed = field(b, "completed");
    if (completed >= rear) continue;
    report.verdicts.push_back(
        label + " band " + std::to_string(field(b, "band")) + ": " +
        std::to_string(rear - completed) +
        " incomplete task(s) (front=" + std::to_string(field(b, "front")) +
        " rear=" + std::to_string(rear) +
        " completed=" + std::to_string(completed) + ")");
  }
}

}  // namespace

PostmortemReport analyze_black_box(const JsonValue& dump) {
  PostmortemReport report;
  report.validation_error = validate(dump);
  report.valid = report.validation_error.empty();
  if (!report.valid) return report;
  report.reason = dump.at("reason").str;

  const JsonValue& devices = dump.at("devices");
  for (std::size_t d = 0; d < devices.array.size(); ++d) {
    analyze_device(devices.array[d], d, report);
  }

  for (const JsonValue& r : dump.at("rings").array) {
    const std::uint64_t backlog = field(r, "backlog");
    if (backlog == 0) continue;
    report.verdicts.push_back(
        "ring dev" + std::to_string(field(r, "src")) + "->dev" +
        std::to_string(field(r, "dst")) + ": " + std::to_string(backlog) +
        " undelivered token(s) (front=" + std::to_string(field(r, "front")) +
        " rear=" + std::to_string(field(r, "rear")) + ")");
  }
  const JsonValue& router = dump.at("router");
  if (router.kind == JsonValue::Kind::kObject) {
    const JsonValue& pending = router.at("pending");
    for (std::size_t d = 0; d < pending.array.size(); ++d) {
      if (pending.array[d].array.empty()) continue;
      report.verdicts.push_back(
          "router holds " + std::to_string(pending.array[d].array.size()) +
          " pending token(s) for dev" + std::to_string(d));
    }
  }
  return report;
}

std::string PostmortemReport::render() const {
  std::ostringstream os;
  os << "== post-mortem ==\n";
  if (!valid) {
    os << "INVALID DUMP: " << validation_error << '\n';
    return os.str();
  }
  os << "reason: " << reason << '\n';
  os << "-- wait-for graph --\n";
  if (wait_edges.empty()) {
    os << "(no outstanding waits recorded)\n";
  } else {
    for (const std::string& e : wait_edges) os << e << '\n';
  }
  os << "-- verdicts --\n";
  if (verdicts.empty()) {
    os << "no blocking structure identified\n";
  } else {
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      os << (i + 1) << ". " << verdicts[i] << '\n';
    }
  }
  return os.str();
}

std::optional<PostmortemReport> analyze_black_box_file(
    const std::string& path) {
  const std::optional<JsonValue> doc = parse_json_file(path);
  if (!doc) return std::nullopt;
  return analyze_black_box(*doc);
}

}  // namespace scq::util
