// The bitboard planner against the grid's reference walk, one attempt at a
// time. For every (slow processor, direction, push type) of the states along
// seeded push trajectories and of the corpus, engine_detail::planType must
// succeed exactly when the grid's attemptType does, its moves must be the
// grid's undo log cell for cell (the partial moves of a failed attempt
// included), and its VoC must be the grid's after the attempt, whether or not
// the guard then accepts it. A counting state then shows that a bitboard
// tryPush writes only the push it applies.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "dfa/schedule.hpp"
#include "grid/bit_partition.hpp"
#include "grid/serialize.hpp"
#include "push/engine.hpp"
#include "push/oriented.hpp"
#include "push/push.hpp"
#include "verify/generators.hpp"
#include "verify/invariants.hpp"

namespace pushpart {
namespace {

using engine_detail::PushPlan;

constexpr int kWordEdgeSizes[] = {63, 64, 65, 127, 128, 129};

/// What the attempts of one comparison covered.
struct Coverage {
  int attempts = 0;
  int planned = 0;   ///< Plans that found a destination for every source.
  int rejected = 0;  ///< Of those, plans the VoC guard turns down.
  int partial = 0;   ///< Failed plans that had already placed some moves.
};

/// Compares one attempt on both engines. `grid` is restored before return.
/// Returns an empty string when the plan matches the reference walk.
std::string compareAttempt(Partition& grid, const BitPartition& bits,
                           Proc active, Direction dir, PushType type,
                           PushPlan& plan, Coverage& coverage) {
  const engine_detail::TypeRule rule = engine_detail::ruleFor(type);
  const std::int64_t vocBefore = grid.volumeOfCommunication();
  const std::string where = std::string(1, procName(active)) + ":" +
                            directionName(dir) + " " + pushTypeName(type);

  OrientedView<Partition> gridView(grid, dir);
  std::vector<CellUndo> gridLog;
  const auto moved = engine_detail::attemptType(
      gridView, active, rule, engine_detail::logicalRects(gridView), gridLog);
  const std::int64_t gridVoc = grid.volumeOfCommunication();
  rollback(grid, gridLog);

  const OrientedView<const BitPartition> bitsView(bits, dir);
  const bool planned = engine_detail::planType(
      bitsView, active, rule, engine_detail::logicalRects(bitsView),
      bits.volumeOfCommunication(), plan);
  ++coverage.attempts;

  if (planned != moved.has_value())
    return where + ": the plan " + (planned ? "succeeds" : "fails") +
           " where the grid's walk " + (moved ? "succeeds" : "fails");

  // The log the plan's moves would write, replayed on the grid and undone.
  std::vector<CellUndo> planLog;
  for (const engine_detail::PlannedMove& m : plan.moves) {
    gridView.set(plan.edge, m.col, m.owner, planLog);
    gridView.set(m.destRow, m.destCol, active, planLog);
  }
  rollback(grid, planLog);
  if (planLog.size() != gridLog.size())
    return where + ": the plan writes " + std::to_string(planLog.size()) +
           " cells, the grid's walk " + std::to_string(gridLog.size());
  for (std::size_t w = 0; w < gridLog.size(); ++w) {
    const CellUndo& a = gridLog[w];
    const CellUndo& b = planLog[w];
    if (a.i != b.i || a.j != b.j || a.previous != b.previous)
      return where + ": write " + std::to_string(w) + " is (" +
             std::to_string(b.i) + "," + std::to_string(b.j) + ") from " +
             procName(b.previous) + " in the plan, (" + std::to_string(a.i) +
             "," + std::to_string(a.j) + ") from " + procName(a.previous) +
             " in the grid's walk";
  }
  // Each edge cell goes to the owner its destination had.
  for (std::size_t m = 0; m < plan.moves.size(); ++m)
    if (plan.moves[m].owner != gridLog[2 * m + 1].previous)
      return where + ": move " + std::to_string(m) +
             " hands the edge cell to the wrong owner";
  if (!planned) {
    if (!plan.moves.empty()) ++coverage.partial;
    return {};
  }
  ++coverage.planned;
  if (plan.vocAfter != gridVoc)
    return where + ": planned VoC " + std::to_string(plan.vocAfter) +
           ", the grid's after the attempt " + std::to_string(gridVoc);
  if (!engine_detail::vocAccepted(rule, vocBefore, plan.vocAfter))
    ++coverage.rejected;
  return {};
}

/// Every (slow processor, direction, type) attempt at one state.
std::string compareEveryAttempt(Partition& grid, const BitPartition& bits,
                                PushPlan& plan, Coverage& coverage) {
  for (Proc active : kSlowProcs)
    for (Direction dir : kAllDirections)
      for (PushType type : kAllPushTypes) {
        std::string diff =
            compareAttempt(grid, bits, active, dir, type, plan, coverage);
        if (!diff.empty()) return diff;
      }
  return {};
}

/// Compares every attempt at each state of a push trajectory from q0 under
/// `schedule`, for at most `maxSweeps` sweeps. The two engines advance in
/// lockstep, so the trajectory itself is also checked.
std::string compareAlongTrajectory(const Partition& q0,
                                   const Schedule& schedule, int maxSweeps,
                                   Coverage& coverage) {
  Partition grid = q0;
  BitPartition bits(q0);
  PushPlan plan;
  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    bool any = false;
    for (const ScheduleSlot& slot : schedule.slots) {
      std::string diff = compareEveryAttempt(grid, bits, plan, coverage);
      if (!diff.empty())
        return "sweep " + std::to_string(sweep) + ": " + diff;
      const PushOutcome g = tryPush(grid, slot.active, slot.dir);
      const PushOutcome b = tryPush(bits, slot.active, slot.dir);
      if (g.applied != b.applied || g.vocAfter != b.vocAfter ||
          !(grid == bits.grid()))
        return "sweep " + std::to_string(sweep) + ": the engines diverged";
      any = any || g.applied;
    }
    if (!any) break;
  }
  return {};
}

TEST(BitsPlannerTest, PlansMatchTheGridWalkOnSmallTrajectories) {
  Coverage coverage;
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx)
    for (int t = 0; t < 40; ++t) {
      const std::uint64_t seed = 900000 +
                                 static_cast<std::uint64_t>(styleIdx) * 1000 +
                                 static_cast<std::uint64_t>(t);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const int n = genSmallN(rng, 4, 14);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const std::string diff =
          compareAlongTrajectory(q0, schedule, 6, coverage);
      ASSERT_TRUE(diff.empty())
          << genStyleName(static_cast<GenStyle>(styleIdx)) << " seed " << seed
          << " n " << n << ": " << diff;
    }
  // The sweep must reach every kind of attempt the planner distinguishes.
  EXPECT_GT(coverage.planned, 0);
  EXPECT_GT(coverage.rejected, 0);
  EXPECT_GT(coverage.partial, 0);
  EXPECT_GT(coverage.attempts - coverage.planned - coverage.partial, 0);
}

TEST(BitsPlannerTest, PlansMatchTheGridWalkAcrossWordEdges) {
  Coverage coverage;
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx)
    for (int n : kWordEdgeSizes) {
      const std::uint64_t seed = 910000 +
                                 static_cast<std::uint64_t>(styleIdx) * 1000 +
                                 static_cast<std::uint64_t>(n);
      Rng rng(seed);
      const Ratio ratio = genRatio(rng);
      const Partition q0 =
          genPartition(static_cast<GenStyle>(styleIdx), n, ratio, rng);
      const Schedule schedule = genSchedule(rng);
      const std::string diff =
          compareAlongTrajectory(q0, schedule, 2, coverage);
      ASSERT_TRUE(diff.empty())
          << genStyleName(static_cast<GenStyle>(styleIdx)) << " seed " << seed
          << " n " << n << ": " << diff;
    }
  EXPECT_GT(coverage.planned, 0);
  EXPECT_GT(coverage.rejected, 0);
}

TEST(BitsPlannerTest, PlansMatchTheGridWalkOnTheCorpus) {
  const std::vector<std::string> files = corpusFiles(PUSHPART_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "corpus missing at " << PUSHPART_CORPUS_DIR;
  Coverage coverage;
  for (const std::string& path : files) {
    const std::string diff = compareAlongTrajectory(
        loadPartition(path), Schedule::full(), 3, coverage);
    EXPECT_TRUE(diff.empty()) << path << ": " << diff;
  }
  EXPECT_GT(coverage.attempts, 0);
}

/// A bitboard state that counts its writes: everything forwards to a
/// BitPartition, and set() also counts.
class CountingBits {
 public:
  explicit CountingBits(const Partition& q) : bits_(q) {}

  const BitPartition& bits() const { return bits_; }
  std::int64_t writes() const { return writes_; }
  void resetWrites() { writes_ = 0; }

  int n() const { return bits_.n(); }
  static constexpr int owners() { return BitPartition::owners(); }
  static constexpr Proc fastest() { return BitPartition::fastest(); }
  Proc at(int i, int j) const { return bits_.at(i, j); }
  void set(int i, int j, Proc p) {
    ++writes_;
    bits_.set(i, j, p);
  }
  std::span<const std::uint64_t> rowBits(Proc p, int i) const {
    return bits_.rowBits(p, i);
  }
  std::span<const std::uint64_t> colBits(Proc p, int j) const {
    return bits_.colBits(p, j);
  }
  std::span<const std::uint64_t> rowPresence(Proc p) const {
    return bits_.rowPresence(p);
  }
  std::span<const std::uint64_t> colPresence(Proc p) const {
    return bits_.colPresence(p);
  }
  int rowCount(Proc p, int i) const { return bits_.rowCount(p, i); }
  int colCount(Proc p, int j) const { return bits_.colCount(p, j); }
  bool rowHas(Proc p, int i) const { return bits_.rowHas(p, i); }
  bool colHas(Proc p, int j) const { return bits_.colHas(p, j); }
  std::int64_t count(Proc p) const { return bits_.count(p); }
  std::int64_t volumeOfCommunication() const {
    return bits_.volumeOfCommunication();
  }
  const Rect& enclosingRect(Proc p) const { return bits_.enclosingRect(p); }

 private:
  BitPartition bits_;
  std::int64_t writes_ = 0;
};

static_assert(HasOwnerBits<CountingBits>);

/// True when some type's plan finds every destination but the guard turns
/// it down, i.e. the attempt the grid would write and roll back.
bool someTypeRejected(const BitPartition& bits, Proc active, Direction dir) {
  const OrientedView<const BitPartition> view(bits, dir);
  PushPlan plan;
  const std::int64_t voc = bits.volumeOfCommunication();
  for (PushType type : kAllPushTypes) {
    const engine_detail::TypeRule rule = engine_detail::ruleFor(type);
    if (engine_detail::planType(view, active, rule,
                                engine_detail::logicalRects(view), voc,
                                plan) &&
        !engine_detail::vocAccepted(rule, voc, plan.vocAfter))
      return true;
  }
  return false;
}

TEST(BitsPlannerTest, OnlyAnAppliedPushWrites) {
  int failed = 0;
  int rejectedOnly = 0;
  int applied = 0;
  for (int t = 0; t < 60; ++t) {
    Rng rng(920000 + static_cast<std::uint64_t>(t));
    const Ratio ratio = genRatio(rng);
    const int n = t % 4 == 0 ? 65 : genSmallN(rng, 4, 14);
    const Partition q0 = genPartition(genStyle(rng), n, ratio, rng);
    const Schedule schedule = genSchedule(rng);
    Partition grid = q0;
    CountingBits counting(q0);
    for (int sweep = 0; sweep < 40; ++sweep) {
      bool any = false;
      for (const ScheduleSlot& slot : schedule.slots) {
        const BitPartition before = counting.bits();
        const bool rejected =
            someTypeRejected(before, slot.active, slot.dir);
        counting.resetWrites();
        const PushOutcome b = tryPushState(counting, slot.active, slot.dir);
        const PushOutcome g = tryPush(grid, slot.active, slot.dir);
        ASSERT_EQ(b.applied, g.applied) << "seed " << t;
        ASSERT_TRUE(grid == counting.bits().grid()) << "seed " << t;
        if (b.applied) {
          ASSERT_EQ(counting.writes(), 2 * b.elementsMoved) << "seed " << t;
          ++applied;
        } else {
          ASSERT_EQ(counting.writes(), 0) << "seed " << t;
          ASSERT_TRUE(counting.bits() == before) << "seed " << t;
          ++failed;
          if (rejected) ++rejectedOnly;
        }
        any = any || b.applied;
      }
      if (!any) break;
    }
  }
  // Failed, guard-rejected and applied pushes must all have been seen.
  EXPECT_GT(applied, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(rejectedOnly, 0);
}

}  // namespace
}  // namespace pushpart
