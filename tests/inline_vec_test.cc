// InlineVec: only the first size() elements are ever constructed or
// copied, resize value-initialises what it adds, and overflow is caught.
#include "src/container/inline_vec.h"

#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/io_request.h"

namespace leap {
namespace {

// Trivially copyable and destructible, as InlineVec requires, but with a
// user-provided default constructor that counts its calls.
struct Counted {
  static inline int constructions = 0;
  Counted() { ++constructions; }
  int value = 7;
};
static_assert(std::is_trivially_copyable_v<Counted>);
static_assert(!std::is_trivially_default_constructible_v<Counted>);

TEST(InlineVec, NewVectorConstructsNoElement) {
  Counted::constructions = 0;
  InlineVec<Counted, 64> v;
  EXPECT_EQ(Counted::constructions, 0);
  EXPECT_TRUE(v.empty());
  const InlineVec<Counted, 64> copy = v;
  InlineVec<Counted, 64> assigned;
  assigned = v;
  EXPECT_EQ(Counted::constructions, 0);
  EXPECT_TRUE(copy.empty());
  EXPECT_TRUE(assigned.empty());
}

TEST(InlineVec, PushBackCopiesWithoutDefaultConstructing) {
  const Counted element;
  Counted::constructions = 0;
  InlineVec<Counted, 64> v;
  v.push_back(element);
  v.push_back(element);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(Counted::constructions, 0);
}

TEST(InlineVec, ResizeValueInitialisesTheGrownPart) {
  Counted::constructions = 0;
  InlineVec<Counted, 64> counted;
  counted.resize(3);
  EXPECT_EQ(Counted::constructions, 3);
  EXPECT_EQ(counted[2].value, 7);
  counted.resize(1);
  counted.resize(2);  // regrows one element only
  EXPECT_EQ(Counted::constructions, 4);

  // Storage that held other values is reset, not reused as it was.
  InlineVec<int, 8> ints;
  for (int i = 1; i <= 5; ++i) {
    ints.push_back(9);
  }
  ints.pop_back();
  ints.pop_back();
  ints.resize(5);
  EXPECT_EQ(ints, (std::vector<int>{9, 9, 9, 0, 0}));

  // Members with default initialisers get them.
  InlineVec<IoRequest, 4> batch;
  batch.resize(1);
  EXPECT_EQ(batch[0].slot, kInvalidSlot);
  EXPECT_EQ(batch[0].bytes, kPageSize);
  EXPECT_EQ(batch[0].cls, IoClass::kDemandRead);
}

TEST(InlineVec, CopyAndAssignmentCopyExactlySizeElements) {
  InlineVec<int, 8> source;
  source.push_back(1);
  source.push_back(2);
  source.push_back(3);
  source.pop_back();  // storage slot 2 still holds 3, past size()

  const InlineVec<int, 8> copy = source;
  EXPECT_EQ(copy, (std::vector<int>{1, 2}));

  InlineVec<int, 8> target;
  for (int i = 0; i < 5; ++i) {
    target.push_back(-1);
  }
  target.clear();
  target = source;
  EXPECT_EQ(target, (std::vector<int>{1, 2}));
  // The elements past size() were not written: slot 2 keeps the target's
  // old value instead of the source's stale 3.
  EXPECT_EQ(target.data()[2], -1);
  EXPECT_EQ(target.data()[4], -1);

  const InlineVec<int, 8>& self = target;
  target = self;  // self-assignment keeps the contents
  EXPECT_EQ(target, (std::vector<int>{1, 2}));
}

#ifndef NDEBUG
TEST(InlineVecDeathTest, OverflowAsserts) {
  InlineVec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  EXPECT_DEATH(v.push_back(3), "InlineVec overflow");
}
#else
TEST(InlineVec, OverflowDropsTheElementWhenAssertsAreOff) {
  InlineVec<int, 2> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  EXPECT_EQ(v, (std::vector<int>{1, 2}));
}
#endif

}  // namespace
}  // namespace leap
