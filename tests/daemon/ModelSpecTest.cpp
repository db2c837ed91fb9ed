//===- tests/daemon/ModelSpecTest.cpp ----------------------------------------=//
//
// The tenant-list syntax pbt-serve's --model/--store and loadgen's
// --model share: comma-separated NAME=FILE or bare FILE entries, in
// order, with empty entries skipped.
//
//===----------------------------------------------------------------------===//

#include "daemon/ModelRegistry.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace pbt;

namespace {

using Specs = std::vector<std::pair<std::string, std::string>>;

TEST(ModelSpecTest, SplitsNamedBareAndEmptyEntries) {
  // A bare FILE gets an empty name: the registry names the tenant after
  // the model's benchmark.
  EXPECT_EQ(daemon::splitModelSpec("a.pbt"), (Specs{{"", "a.pbt"}}));
  EXPECT_EQ(daemon::splitModelSpec("fast=b.pbt"), (Specs{{"fast", "b.pbt"}}));
  EXPECT_EQ(daemon::splitModelSpec("a.pbt,fast=b.pbt,dir/c.pbt"),
            (Specs{{"", "a.pbt"}, {"fast", "b.pbt"}, {"", "dir/c.pbt"}}));
  // The name ends at the first '='; the rest is the path.
  EXPECT_EQ(daemon::splitModelSpec("x=y=z.pbt"), (Specs{{"x", "y=z.pbt"}}));
  // Empty entries, leading, doubled or trailing, are skipped.
  EXPECT_EQ(daemon::splitModelSpec(",a.pbt,,b=c.pbt,"),
            (Specs{{"", "a.pbt"}, {"b", "c.pbt"}}));
  EXPECT_TRUE(daemon::splitModelSpec("").empty());
  EXPECT_TRUE(daemon::splitModelSpec(",,").empty());
}

} // namespace
