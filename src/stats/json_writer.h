// Streaming JSON writer for bench results and time-series rows.
//
// Layout rule: every container is written in one of two styles.
//   kBlock   one member per line, indented two spaces per nesting level;
//            the closing bracket on its own line at the container's indent.
//   kInline  all members on one line: {"k": v, "k2": v2} or [1, 2].
//            Anything opened inside an inline container is inline too.
// The writer places every comma and closing bracket, and ends a finished
// top-level value with "\n", so top-level inline objects form JSONL.
// Strings are written verbatim and must hold no quote, backslash or
// control character. Doubles take their precision per call ("%.*f").
// The stream's owner checks it once the document is written.
#ifndef LEAP_SRC_STATS_JSON_WRITER_H_
#define LEAP_SRC_STATS_JSON_WRITER_H_

#include <cassert>
#include <concepts>
#include <cstdio>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace leap {

class JsonWriter {
 public:
  enum Style { kBlock, kInline };

  explicit JsonWriter(std::ostream& out) : out_(out) {}

  // Opens a container; inside an object, name it with Key() first.
  JsonWriter& BeginObject(Style style = kBlock) { return Open('{', style); }
  JsonWriter& BeginArray(Style style = kBlock) { return Open('[', style); }

  // Closes the innermost open container.
  JsonWriter& End() {
    assert(!stack_.empty());
    const Frame frame = stack_.back();
    stack_.pop_back();
    if (!frame.is_inline && frame.has_members) {
      NewLine();
    }
    out_ << (frame.open == '{' ? '}' : ']');
    return Finish();
  }

  // Names the next value or container inside an object.
  JsonWriter& Key(std::string_view key) {
    assert(!stack_.empty() && stack_.back().open == '{');
    Separate();
    WriteString(key);
    out_ << ": ";
    return *this;
  }

  template <std::integral T>
  JsonWriter& Value(T v) {
    BeginValue();
    if constexpr (std::same_as<T, bool>) {
      out_ << (v ? "true" : "false");
    } else if constexpr (std::signed_integral<T>) {
      out_ << static_cast<long long>(v);
    } else {
      out_ << static_cast<unsigned long long>(v);
    }
    return Finish();
  }

  JsonWriter& Value(std::string_view v) {
    BeginValue();
    WriteString(v);
    return Finish();
  }

  JsonWriter& Value(double v, int precision) {
    assert(precision >= 0 && precision <= 17);
    char buf[352];  // any finite double: 309 integer digits + fraction
    const int n = std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    BeginValue();
    out_.write(buf, n);
    return Finish();
  }

  // Key(key) then Value(args...).
  template <typename... Args>
  JsonWriter& Field(std::string_view key, Args&&... args) {
    Key(key);
    return Value(std::forward<Args>(args)...);
  }

  // An inline array of the integers in `values`.
  template <typename Range>
  JsonWriter& Array(const Range& values) {
    BeginArray(kInline);
    for (const auto& v : values) {
      Value(v);
    }
    return End();
  }

 private:
  struct Frame {
    char open;
    bool is_inline;
    bool has_members;
  };

  JsonWriter& Open(char open, Style style) {
    BeginValue();
    const bool is_inline =
        style == kInline || (!stack_.empty() && stack_.back().is_inline);
    out_ << open;
    stack_.push_back({open, is_inline, false});
    return *this;
  }

  // In an object, Key() has already placed the separator.
  void BeginValue() {
    if (!stack_.empty() && stack_.back().open == '[') {
      Separate();
    }
  }

  void Separate() {
    Frame& frame = stack_.back();
    if (frame.has_members) {
      out_ << (frame.is_inline ? ", " : ",");
    }
    if (!frame.is_inline) {
      NewLine();
    }
    frame.has_members = true;
  }

  void NewLine() {
    out_ << '\n' << std::string(2 * stack_.size(), ' ');
  }

  JsonWriter& Finish() {
    if (stack_.empty()) {
      out_ << '\n';
    }
    return *this;
  }

  void WriteString(std::string_view s) {
    assert(s.find_first_of("\"\\") == std::string_view::npos);
    out_ << '"' << s << '"';
  }

  std::ostream& out_;
  std::vector<Frame> stack_;
};

}  // namespace leap

#endif  // LEAP_SRC_STATS_JSON_WRITER_H_
