// Json parser bounds: container nesting is capped, so one request
// line cannot recurse the daemon's connection thread off its stack.
#include <gtest/gtest.h>

#include <string>

#include "common/json.hpp"

namespace sickle::serve {
namespace {

/// `depth` nested arrays around an empty innermost one.
std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(ServeJson, NestingAtTheLimitParses) {
  Json v = Json::parse(nested_arrays(64));
  std::size_t depth = 1;
  while (!v.items().empty()) {
    const Json inner = v.items().front();
    v = inner;
    ++depth;
  }
  EXPECT_EQ(depth, 64u);
  // Objects count toward the same limit as arrays.
  std::string mixed;
  for (int i = 0; i < 32; ++i) mixed += "{\"a\":[";
  mixed += "1";
  for (int i = 0; i < 32; ++i) mixed += "]}";
  EXPECT_NO_THROW((void)Json::parse(mixed));
}

TEST(ServeJson, NestingPastTheLimitThrows) {
  EXPECT_THROW((void)Json::parse(nested_arrays(65)), RuntimeError);
  std::string mixed = "[";
  for (int i = 0; i < 32; ++i) mixed += "{\"a\":[";
  mixed += "1";
  for (int i = 0; i < 32; ++i) mixed += "]}";
  mixed += "]";
  EXPECT_THROW((void)Json::parse(mixed), RuntimeError);
}

TEST(ServeJson, HundredThousandOpenBracketsThrowInsteadOfCrashing) {
  // Unterminated, as a hostile request line would be: the depth limit
  // must fire long before the missing closers are noticed.
  try {
    (void)Json::parse(std::string(100000, '['));
    FAIL() << "100k-deep line parsed";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace sickle::serve
