// Differential tests of the block comm plan against the element-level
// builder and verifier it replaced, kept here as references: every plan
// expands to the reference's element lists, and the block verifier agrees
// with the element verifier on plans tampered in every way a block can be.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "grid/builder.hpp"
#include "grid/ratio.hpp"
#include "plan/comm_plan.hpp"
#include "shapes/candidates.hpp"
#include "support/rng.hpp"

namespace pushpart {
namespace {

using Volumes = std::array<std::array<std::int64_t, kNumProcs>, kNumProcs>;

// --- The element-level references -----------------------------------------

/// The element-level builder: one one-element block per element transfer,
/// ordered by line, then receiver.
std::vector<PivotTransfers> referencePlan(const Partition& q, int firstPivot) {
  const int n = q.n();
  std::vector<PivotTransfers> plan;
  for (int k = firstPivot; k < n; ++k) {
    PivotTransfers step;
    step.pivot = k;
    for (int i = 0; i < n; ++i) {
      const Proc owner = q.at(i, k);
      for (Proc r : kAllProcs) {
        if (r == owner || !q.rowHas(r, i)) continue;
        step.aColumn.push_back({i, k, owner, r});
      }
    }
    for (int j = 0; j < n; ++j) {
      const Proc owner = q.at(k, j);
      for (Proc r : kAllProcs) {
        if (r == owner || !q.colHas(r, j)) continue;
        step.bRow.push_back({k, j, owner, r});
      }
    }
    plan.push_back(std::move(step));
  }
  return plan;
}

/// Each block of `plan` as count one-element blocks, in list order (a
/// count below 1 yields none). Coordinates are widened so that a tampered
/// block cannot overflow; one leaving int's range is clamped to -1, which is
/// outside every grid.
std::vector<PivotTransfers> expandToElements(
    const std::vector<PivotTransfers>& plan) {
  auto clampCoord = [](std::int64_t x) {
    return x < 0 || x > INT_MAX ? -1 : static_cast<int>(x);
  };
  auto expand = [&](const std::vector<BlockTransfer>& blocks, bool down) {
    std::vector<BlockTransfer> elements;
    for (const BlockTransfer& t : blocks)
      for (std::int64_t e = 0; e < t.count; ++e)
        elements.push_back(
            {clampCoord(t.i + (down ? e : 0)), clampCoord(t.j + (down ? 0 : e)),
             t.from, t.to});
    return elements;
  };
  std::vector<PivotTransfers> out;
  for (const PivotTransfers& step : plan) {
    PivotTransfers copy;
    copy.pivot = step.pivot;
    copy.aColumn = expand(step.aColumn, true);
    copy.bRow = expand(step.bRow, false);
    out.push_back(std::move(copy));
  }
  return out;
}

/// The element-level verifier: per-element validity, one delivery stamp per
/// (kind, line, receiver) slot, and the directed volumes recounted from the
/// line counters. Every block of `plan` must hold one element.
bool referenceVerify(const Partition& q, const std::vector<PivotTransfers>& plan,
                     int firstPivot) {
  const int n = q.n();
  if (firstPivot < 0 || firstPivot > n) return false;
  if (static_cast<int>(plan.size()) != n - firstPivot) return false;
  auto isProc = [](Proc p) { return procSlot(p) < kNumProcs; };
  auto inRange = [n](int line) { return line >= 0 && line < n; };
  std::vector<int> stamp(2 * static_cast<std::size_t>(n) * kNumProcs, 0);
  auto firstDelivery = [&](int kind, int line, Proc to, int k) {
    int& slot = stamp[static_cast<std::size_t>((kind * n + line) * kNumProcs) +
                      procSlot(to)];
    if (slot == k + 1) return false;
    slot = k + 1;
    return true;
  };
  Volumes got{};
  for (int k = firstPivot; k < n; ++k) {
    const PivotTransfers& step = plan[static_cast<std::size_t>(k - firstPivot)];
    if (step.pivot != k) return false;
    for (const BlockTransfer& t : step.aColumn) {
      EXPECT_EQ(t.count, 1);
      if (t.j != k || !inRange(t.i)) return false;
      if (!isProc(t.from) || !isProc(t.to)) return false;
      if (q.at(t.i, t.j) != t.from) return false;
      if (t.to == t.from) return false;
      if (!q.rowHas(t.to, t.i)) return false;
      if (!firstDelivery(0, t.i, t.to, k)) return false;
      ++got[procSlot(t.from)][procSlot(t.to)];
    }
    for (const BlockTransfer& t : step.bRow) {
      EXPECT_EQ(t.count, 1);
      if (t.i != k || !inRange(t.j)) return false;
      if (!isProc(t.from) || !isProc(t.to)) return false;
      if (q.at(t.i, t.j) != t.from) return false;
      if (t.to == t.from) return false;
      if (!q.colHas(t.to, t.j)) return false;
      if (!firstDelivery(1, t.j, t.to, k)) return false;
      ++got[procSlot(t.from)][procSlot(t.to)];
    }
  }
  Volumes want{};
  for (int k = firstPivot; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      const Proc owner = q.at(i, k);
      for (Proc r : kAllProcs)
        if (r != owner && q.rowHas(r, i)) ++want[procSlot(owner)][procSlot(r)];
    }
    for (int j = 0; j < n; ++j) {
      const Proc owner = q.at(k, j);
      for (Proc r : kAllProcs)
        if (r != owner && q.colHas(r, j)) ++want[procSlot(owner)][procSlot(r)];
    }
  }
  if (got != want) return false;
  if (firstPivot == 0 && want != pairVolumes(q)) return false;
  return true;
}

// --- Partitions -------------------------------------------------------------

/// A grid cut into random bands of rows and of columns, each tile owned by
/// a random processor: long runs of identical lines whose neighbours often
/// share a sender and a receiver, so blocks span several runs.
Partition tiledPartition(int n, Rng& rng) {
  auto cuts = [&] {
    std::vector<int> band(static_cast<std::size_t>(n));
    int id = 0;
    for (int x = 0; x < n; ++x) {
      if (x > 0 && rng.chance(0.3)) ++id;
      band[static_cast<std::size_t>(x)] = id;
    }
    return band;
  };
  const std::vector<int> rowBand = cuts();
  const std::vector<int> colBand = cuts();
  std::vector<Proc> tile(static_cast<std::size_t>(n * n));
  for (Proc& p : tile) p = kAllProcs[static_cast<std::size_t>(rng.below(3))];
  Partition q(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      q.set(i, j,
            tile[static_cast<std::size_t>(rowBand[static_cast<std::size_t>(i)] *
                                              n +
                                          colBand[static_cast<std::size_t>(j)])]);
  return q;
}

/// Uniform, scattered, clustered and tiled partitions of side n.
std::vector<Partition> samplePartitions(int n, Rng& rng) {
  std::vector<Partition> out;
  for (Proc fill : kAllProcs) out.emplace_back(n, fill);
  for (const Ratio& ratio : {Ratio{2, 1, 1}, Ratio{5, 2, 1}}) {
    out.push_back(randomPartition(n, ratio, rng));
    out.push_back(randomClusteredPartition(n, ratio, rng));
  }
  for (int t = 0; t < 3; ++t) out.push_back(tiledPartition(n, rng));
  return out;
}

// --- Plan shape -------------------------------------------------------------

/// Blocks listed by first line, then receiver, and no two blocks with the
/// same sender and receiver touching (so none could be merged).
void expectMaximalAndOrdered(const std::vector<BlockTransfer>& blocks,
                             bool down) {
  auto first = [down](const BlockTransfer& t) { return down ? t.i : t.j; };
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const BlockTransfer& t = blocks[b];
    EXPECT_GE(t.count, 1);
    if (b > 0) {
      const BlockTransfer& prev = blocks[b - 1];
      EXPECT_TRUE(first(prev) < first(t) ||
                  (first(prev) == first(t) &&
                   procSlot(prev.to) < procSlot(t.to)))
          << "block " << b << " out of order";
    }
    for (const BlockTransfer& u : blocks) {
      if (u.from == t.from && u.to == t.to) {
        EXPECT_NE(first(t) + t.count, first(u))
            << "two " << procName(t.from) << "->" << procName(t.to)
            << " blocks touch at line " << first(u);
      }
    }
  }
}

/// Builds the block plan of q's pivots [firstPivot, N) and checks it against
/// the reference: the same elements in the same order, the same sizes, both
/// verifiers accepting it and the reference's one-element blocks.
void expectPlanMatchesReference(const Partition& q, int firstPivot) {
  const auto plan = buildElementPlanRange(q, firstPivot);
  const auto reference = referencePlan(q, firstPivot);
  ASSERT_EQ(plan.size(), reference.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    SCOPED_TRACE("pivot " + std::to_string(plan[k].pivot));
    EXPECT_EQ(plan[k].pivot, reference[k].pivot);
    EXPECT_EQ(plan[k].aElements(), reference[k].aColumn);
    EXPECT_EQ(plan[k].bElements(), reference[k].bRow);
    EXPECT_EQ(plan[k].size(), reference[k].size());
    expectMaximalAndOrdered(plan[k].aColumn, true);
    expectMaximalAndOrdered(plan[k].bRow, false);
  }
  EXPECT_TRUE(verifyElementPlanRange(q, plan, firstPivot));
  EXPECT_TRUE(referenceVerify(q, expandToElements(plan), firstPivot));
  EXPECT_TRUE(verifyElementPlanRange(q, reference, firstPivot));
}

TEST(CommPlanReferenceTest, RandomPlansExpandToTheReferenceElements) {
  Rng rng(28);
  for (int n = 1; n <= 24; ++n)
    for (const Partition& q : samplePartitions(n, rng))
      for (int firstPivot : {0, n / 3, n - 1, n}) {
        SCOPED_TRACE("n " + std::to_string(n) + ", first pivot " +
                     std::to_string(firstPivot) + ", VoC " +
                     std::to_string(q.volumeOfCommunication()));
        expectPlanMatchesReference(q, firstPivot);
      }
}

TEST(CommPlanReferenceTest, CandidatePlansExpandToTheReferenceElements) {
  int plans = 0;
  for (int n : {30, 97, 192, 256})
    for (CandidateShape shape : kAllCandidates)
      for (const Ratio& ratio : paperRatios()) {
        if (!candidateFeasible(shape, n, ratio)) continue;
        SCOPED_TRACE(std::string(candidateName(shape)) + " at " + ratio.str() +
                     ", n " + std::to_string(n));
        expectPlanMatchesReference(makeCandidate(shape, n, ratio), 0);
        ++plans;
      }
  EXPECT_GT(plans, 200);
}

// --- Tampered plans ---------------------------------------------------------

enum class Mutation {
  kDropOrShrink,
  kGrowCount,
  kDuplicate,
  kChangeSender,
  kChangeReceiver,
  kShiftStart,
  kExtendBackwards,
  // Two that keep the directed volumes: a block grows by one line, or is
  // duplicated, and other blocks with its sender and receiver shrink by as
  // much. Only the checks on every element of a block catch the first, and
  // only the uniqueness check the second.
  kGrowAndShrink,
  kDuplicateAndShrink,
  // Two rewrites that keep the plan sound: both verifiers must accept.
  kSplit,
  kReverse,
};
constexpr int kMutations = 11;

/// Applies `m` to a random block of a random non-empty list of `plan`;
/// false when the plan has no block, or the volume-keeping mutations find
/// no other block with its sender and receiver to shrink.
bool tamper(std::vector<PivotTransfers>& plan, Mutation m, Rng& rng) {
  // Each non-empty list, and whether its blocks run down a column (A).
  std::vector<std::pair<std::vector<BlockTransfer>*, bool>> lists;
  for (PivotTransfers& step : plan) {
    if (!step.aColumn.empty()) lists.emplace_back(&step.aColumn, true);
    if (!step.bRow.empty()) lists.emplace_back(&step.bRow, false);
  }
  if (lists.empty()) return false;
  const auto [listPtr, aBlock] = lists[rng.below(lists.size())];
  std::vector<BlockTransfer>& list = *listPtr;
  const std::size_t b = rng.below(list.size());
  BlockTransfer& t = list[b];
  int& start = aBlock ? t.i : t.j;
  auto otherProc = [&](Proc p, int ids) {
    Proc q = p;
    while (q == p) q = procFromIndex(static_cast<int>(rng.below(
                                         static_cast<std::uint64_t>(ids))));
    return q;
  };
  switch (m) {
    case Mutation::kDropOrShrink:
      if (rng.chance(0.5))
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(b));
      else
        --t.count;
      break;
    case Mutation::kGrowCount:
      ++t.count;
      break;
    case Mutation::kDuplicate: {
      const BlockTransfer copy = t;
      list.insert(list.begin() + static_cast<std::ptrdiff_t>(
                                     rng.below(list.size() + 1)),
                  copy);
      break;
    }
    case Mutation::kChangeSender:
      t.from = otherProc(t.from, kNumProcs);
      break;
    case Mutation::kChangeReceiver:
      t.to = otherProc(t.to, kNumProcs + 1);  // id 3 is no processor
      break;
    case Mutation::kShiftStart:
      (rng.chance(0.5) ? t.i : t.j) += rng.chance(0.5) ? 1 : -1;
      break;
    case Mutation::kExtendBackwards:
      --start;
      ++t.count;
      break;
    case Mutation::kGrowAndShrink:
    case Mutation::kDuplicateAndShrink: {
      const bool grow = m == Mutation::kGrowAndShrink;
      const BlockTransfer copy = t;
      // Other blocks with t's sender and receiver, and the elements they
      // hold beyond one each.
      std::vector<BlockTransfer*> partners;
      int spare = 0;
      for (const auto& entry : lists)
        for (BlockTransfer& u : *entry.first)
          if (&u != &t && u.from == t.from && u.to == t.to) {
            partners.push_back(&u);
            spare += u.count - 1;
          }
      int shrink = grow ? 1 : t.count;
      if (spare < shrink) return false;
      rng.shuffle(partners);
      for (BlockTransfer* u : partners) {
        const int by = std::min(shrink, u->count - 1);
        u->count -= by;
        shrink -= by;
      }
      if (grow)
        ++t.count;
      else
        list.insert(list.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(list.size() + 1)),
                    copy);
      break;
    }
    case Mutation::kSplit:
      if (t.count > 1) {
        BlockTransfer tail = t;
        const int head = 1 + static_cast<int>(rng.below(
                                 static_cast<std::uint64_t>(t.count - 1)));
        t.count = head;
        (aBlock ? tail.i : tail.j) += head;
        tail.count -= head;
        list.push_back(tail);
      }
      break;
    case Mutation::kReverse:
      std::reverse(list.begin(), list.end());
      break;
  }
  return true;
}

TEST(CommPlanReferenceTest, BlockVerifierAgreesWithTheReferenceOnTamperedPlans) {
  Rng rng(2828);
  std::array<int, kMutations> accepted{};
  std::array<int, kMutations> rejected{};
  auto cases = [&](int m) {
    const auto slot = static_cast<std::size_t>(m);
    return accepted[slot] + rejected[slot];
  };
  // At least 3,000 plans per mutation: over 20,000 for the seven that
  // break a plan in one place.
  auto done = [&] {
    for (int m = 0; m < kMutations; ++m)
      if (cases(m) < 3000) return false;
    return true;
  };
  while (!done()) {
    const int n = 2 + static_cast<int>(rng.below(11));
    const Partition q = rng.chance(0.5)
                            ? tiledPartition(n, rng)
                            : randomPartition(n, Ratio{3, 2, 1}, rng);
    const int firstPivot = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(n)));
    const auto plan = buildElementPlanRange(q, firstPivot);
    for (int m = 0; m < kMutations; ++m) {
      auto tampered = plan;
      if (!tamper(tampered, static_cast<Mutation>(m), rng)) continue;
      const bool blocks = verifyElementPlanRange(q, tampered, firstPivot);
      const bool elements =
          referenceVerify(q, expandToElements(tampered), firstPivot);
      ASSERT_EQ(blocks, elements)
          << "mutation " << m << " at n " << n << ", first pivot "
          << firstPivot;
      ++(blocks ? accepted : rejected)[static_cast<std::size_t>(m)];
    }
  }
  // Every breaking mutation is caught and every sound rewrite accepted.
  for (int m = 0; m < kMutations; ++m) {
    SCOPED_TRACE("mutation " + std::to_string(m));
    const auto slot = static_cast<std::size_t>(m);
    if (m < static_cast<int>(Mutation::kSplit))
      EXPECT_EQ(accepted[slot], 0);
    else
      EXPECT_EQ(rejected[slot], 0);
  }
}

TEST(CommPlanReferenceTest, RejectsCountsBelowOneAndNearIntMax) {
  Partition q(6);
  q.set(1, 2, Proc::R);
  q.set(2, 2, Proc::R);
  const auto plan = buildElementPlan(q);
  ASSERT_TRUE(verifyElementPlan(q, plan));
  for (bool aList : {true, false})
    for (int count : {0, -1, INT_MIN, INT_MAX, INT_MAX - 1}) {
      auto tampered = plan;
      auto& list = aList ? tampered[2].aColumn : tampered[2].bRow;
      ASSERT_FALSE(list.empty());
      list.front().count = count;
      EXPECT_FALSE(verifyElementPlan(q, tampered))
          << (aList ? "A" : "B") << " count " << count;
      // A block near the grid's end with the largest count.
      list.front() = {aList ? 5 : 2, aList ? 2 : 5, Proc::P, Proc::R, count};
      EXPECT_FALSE(verifyElementPlan(q, tampered))
          << (aList ? "A" : "B") << " end count " << count;
    }
}

}  // namespace
}  // namespace pushpart
