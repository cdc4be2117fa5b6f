#include "middleware/json.h"

#include <cmath>
#include <cstdio>

#include "util/format.h"
#include "util/logging.h"

namespace marlin {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_value_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_value_ = value;
  return v;
}

JsonValue JsonValue::Int(int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kInt;
  v.int_value_ = value;
  return v;
}

JsonValue JsonValue::Str(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_value_ = std::move(value);
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  MARLIN_CHECK(kind_ == Kind::kObject);
  for (auto& [existing_key, existing_value] : children_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return *this;
    }
  }
  children_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  MARLIN_CHECK(kind_ == Kind::kArray);
  children_.emplace_back(std::string(), std::move(value));
  return *this;
}

void JsonValue::EscapeTo(const std::string& raw, std::string* out) {
  out->push_back('"');
  for (char c : raw) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void JsonValue::DumpTo(std::string* out) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_value_ ? "true" : "false";
      return;
    case Kind::kInt:
      AppendInt(out, int_value_);
      return;
    case Kind::kNumber:
      if (!std::isfinite(number_value_)) {
        *out += "null";
        return;
      }
      AppendFixed(out, number_value_, 6);
      // Trim trailing zeros but keep at least one decimal digit (a finite
      // value's fixed rendering always has a point).
      while (out->back() == '0' && (*out)[out->size() - 2] != '.') {
        out->pop_back();
      }
      return;
    case Kind::kString:
      EscapeTo(string_value_, out);
      return;
    case Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : children_) {
        if (!first) out->push_back(',');
        first = false;
        EscapeTo(key, out);
        out->push_back(':');
        value.DumpTo(out);
      }
      out->push_back('}');
      return;
    }
    case Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const auto& [key, value] : children_) {
        (void)key;
        if (!first) out->push_back(',');
        first = false;
        value.DumpTo(out);
      }
      out->push_back(']');
      return;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out);
  return out;
}

}  // namespace marlin
