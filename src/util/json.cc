#include "util/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace scq::util {

const JsonValue& JsonValue::at(const std::string& key) const {
  static const JsonValue empty;
  const auto it = object.find(key);
  return it == object.end() ? empty : it->second;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    auto v = value();
    skip_ws();
    if (!v.has_value() || pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return keyword("true", JsonValue::Kind::kBool, true);
      case 'f': return keyword("false", JsonValue::Kind::kBool, false);
      case 'n': return keyword("null", JsonValue::Kind::kNull, false);
      default: return number();
    }
  }

  static JsonValue make(JsonValue::Kind kind) {
    JsonValue v;
    v.kind = kind;
    return v;
  }

  std::optional<JsonValue> keyword(std::string_view word, JsonValue::Kind kind,
                                   bool boolean) {
    if (text_.substr(pos_, word.size()) != word) return std::nullopt;
    pos_ += word.size();
    JsonValue v = make(kind);
    v.boolean = boolean;
    return v;
  }

  std::optional<JsonValue> number() {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double parsed = std::strtod(begin, &end);
    if (end == begin) return std::nullopt;
    pos_ += static_cast<std::size_t>(end - begin);
    JsonValue v = make(JsonValue::Kind::kNumber);
    v.number = parsed;
    return v;
  }

  std::optional<JsonValue> string_value() {
    if (!consume('"')) return std::nullopt;
    JsonValue v = make(JsonValue::Kind::kString);
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) return std::nullopt;
            pos_ += 4;  // keep the replacement crude; names are ASCII
            c = '?';
            break;
          default: return std::nullopt;
        }
      }
      v.str += c;
    }
    if (!consume('"')) return std::nullopt;
    return v;
  }

  std::optional<JsonValue> array() {
    if (!consume('[')) return std::nullopt;
    JsonValue v = make(JsonValue::Kind::kArray);
    if (consume(']')) return v;
    for (;;) {
      auto item = value();
      if (!item.has_value()) return std::nullopt;
      v.array.push_back(std::move(*item));
      if (consume(']')) return v;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::optional<JsonValue> object() {
    if (!consume('{')) return std::nullopt;
    JsonValue v = make(JsonValue::Kind::kObject);
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      auto key = string_value();
      if (!key.has_value() || !consume(':')) return std::nullopt;
      auto item = value();
      if (!item.has_value()) return std::nullopt;
      v.object.emplace(std::move(key->str), std::move(*item));
      if (consume('}')) return v;
      if (!consume(',')) return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::optional<JsonValue> parse_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string body;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) return std::nullopt;
  return parse_json(body);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

bool write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  bool ok = f != nullptr;
  if (ok) {
    ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
    ok = std::fclose(f) == 0 && ok;
  }
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

namespace {

void flatten_leaves(const JsonValue& v, const std::string& prefix,
                    std::map<std::string, double>& out) {
  switch (v.kind) {
    case JsonValue::Kind::kNumber:
      out[prefix] = v.number;
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [key, child] : v.object) {
        flatten_leaves(child, prefix.empty() ? key : prefix + "." + key, out);
      }
      break;
    default:
      break;  // strings/bools/nulls/arrays are not metrics
  }
}

}  // namespace

std::map<std::string, double> flatten_metrics(const JsonValue& doc) {
  std::map<std::string, double> out;
  if (doc.kind != JsonValue::Kind::kObject) return out;

  if (doc.has("metrics")) {
    for (const auto& [key, v] : doc.at("metrics").object) {
      if (v.kind == JsonValue::Kind::kNumber) out[key] = v.number;
    }
    return out;
  }

  if (doc.has("histograms")) {
    for (const auto& [name, h] : doc.at("histograms").object) {
      for (const char* key : kHistogramSummaryKeys) {
        if (h.has(key) && h.at(key).kind == JsonValue::Kind::kNumber) {
          out[name + "." + key] = h.at(key).number;
        }
      }
    }
    if (doc.has("windows") && doc.at("windows").has("dropped_windows") &&
        doc.at("windows").at("dropped_windows").kind ==
            JsonValue::Kind::kNumber) {
      out["dropped_windows"] = doc.at("windows").at("dropped_windows").number;
    }
    return out;
  }

  flatten_leaves(doc, "", out);
  return out;
}

}  // namespace scq::util
