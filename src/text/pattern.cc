#include "text/pattern.h"

#include "util/stringutil.h"

namespace regal {

namespace {

// True iff `token` matches `body` where '?' matches any single char.
// Both strings must have equal length.
bool BodyMatches(std::string_view body, std::string_view token,
                 bool case_insensitive) {
  if (body.size() != token.size()) return false;
  for (size_t i = 0; i < body.size(); ++i) {
    char b = body[i];
    if (b == '?') continue;
    char t = token[i];
    if (case_insensitive) {
      b = ToLowerAscii(b);
      t = ToLowerAscii(t);
    }
    if (b != t) return false;
  }
  return true;
}

}  // namespace

Result<Pattern> Pattern::Parse(std::string_view spec, bool case_insensitive) {
  Pattern p;
  p.case_insensitive_ = case_insensitive;
  std::string_view body = spec;
  if (!body.empty() && body.front() == '*') {
    p.anchored_front_ = false;
    body.remove_prefix(1);
  }
  if (!body.empty() && body.back() == '*') {
    p.anchored_back_ = false;
    body.remove_suffix(1);
  }
  if (body.empty()) {
    return Status::InvalidArgument("pattern '" + std::string(spec) +
                                   "' has an empty body");
  }
  if (body.find('*') != std::string_view::npos) {
    return Status::InvalidArgument(
        "'*' is only allowed at the ends of a pattern: '" + std::string(spec) +
        "'");
  }
  p.body_ = std::string(body);

  // Longest '?'-free run.
  size_t best_start = 0;
  size_t best_len = 0;
  size_t run_start = 0;
  for (size_t i = 0; i <= body.size(); ++i) {
    if (i == body.size() || body[i] == '?') {
      if (i - run_start > best_len) {
        best_len = i - run_start;
        best_start = run_start;
      }
      run_start = i + 1;
    }
  }
  p.literal_core_ = std::string(body.substr(best_start, best_len));
  if (case_insensitive) p.literal_core_ = ToLowerAscii(p.literal_core_);
  p.core_offset_ = static_cast<int>(best_start);
  return p;
}

Result<Pattern> Pattern::FromCacheKey(std::string_view key) {
  if (key.size() < 2 || key[1] != ':' || (key[0] != 's' && key[0] != 'i')) {
    return Status::InvalidArgument(
        StrCat({"'", key, "' is not a pattern cache key"}));
  }
  return Parse(key.substr(2), /*case_insensitive=*/key[0] == 'i');
}

bool Pattern::MatchesToken(std::string_view token) const {
  if (anchored_front_ && anchored_back_) {
    return BodyMatches(body_, token, case_insensitive_);
  }
  if (token.size() < body_.size()) return false;
  if (anchored_front_) {
    return BodyMatches(body_, token.substr(0, body_.size()), case_insensitive_);
  }
  if (anchored_back_) {
    return BodyMatches(body_, token.substr(token.size() - body_.size()),
                       case_insensitive_);
  }
  for (size_t i = 0; i + body_.size() <= token.size(); ++i) {
    if (BodyMatches(body_, token.substr(i, body_.size()), case_insensitive_)) {
      return true;
    }
  }
  return false;
}

std::string Pattern::ToString() const {
  std::string out;
  if (!anchored_front_) out += '*';
  out += body_;
  if (!anchored_back_) out += '*';
  return out;
}

std::string Pattern::CacheKey() const {
  return (case_insensitive_ ? "i:" : "s:") + ToString();
}

}  // namespace regal
