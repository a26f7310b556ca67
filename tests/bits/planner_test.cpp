// The bitboard planner against the grid's reference walk, one attempt at a
// time. For every (slow processor, direction, push type) of the states along
// seeded push trajectories and of the corpus, engine_detail::planType must
// succeed exactly when the grid's attemptType does, its moves must be the
// grid's undo log cell for cell (the partial moves of a failed attempt
// included), and its VoC must be the grid's after the attempt, whether or not
// the guard then accepts it. Along the same walks, the two exits of planPush
// fire only where every type fails, and planPush picks the grid's type. A
// counting state then shows that a bitboard tryPush writes only the push it
// applies.
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

/// How often the exits of planPush had something to decide.
struct ExitCoverage {
  int freeShort = 0;  ///< Fewer free interior cells than edge sources.
  /// Type Six placed no source set although the free cells sufficed.
  int sixFails = 0;
  /// As many free cells as sources, and the push applied: the free-cell
  /// exit's boundary.
  int boundaryApplied = 0;
};

/// Checks the two exits of planPush at every (slow processor, direction) of
/// one state. Where the active rectangle has fewer free interior cells than
/// edge sources, or where Type Six places no source set, no type's plan and
/// no grid walk may place every source; and planPush must pick the type the
/// grid's tryPush applies, with Types Five and Six allowed and not. `grid`
/// is restored before return. Returns an empty string when all of it holds.
std::string checkExits(Partition& grid, const BitPartition& bits,
                       ExitCoverage& coverage) {
  PushPlan plan;
  const std::int64_t voc = bits.volumeOfCommunication();
  for (Proc active : kSlowProcs)
    for (Direction dir : kAllDirections) {
      const std::string where =
          std::string(1, procName(active)) + ":" + directionName(dir);
      const OrientedView<const BitPartition> view(bits, dir);
      const auto rects = engine_detail::logicalRects(view);
      const Rect r = rects[procSlot(active)];
      if (r.isEmpty() || r.height() < 2) continue;
      const std::int64_t sources = view.rowCount(active, r.rowBegin);
      const std::int64_t freeCells =
          static_cast<std::int64_t>(r.width()) * (r.height() - 1) -
          (bits.count(active) - sources);

      OrientedView<Partition> gridView(grid, dir);
      bool placed = false;  // some type placed every source
      bool sixPlaces = false;
      for (PushType type : kAllPushTypes) {
        const engine_detail::TypeRule rule = engine_detail::ruleFor(type);
        std::vector<CellUndo> log;
        const bool walked =
            engine_detail::attemptType(gridView, active, rule,
                                       engine_detail::logicalRects(gridView),
                                       log)
                .has_value();
        rollback(grid, log);
        const bool planned =
            engine_detail::planType(view, active, rule, rects, voc, plan);
        placed = placed || walked || planned;
        if (type == PushType::kType6) sixPlaces = planned;
      }
      if (freeCells < sources) {
        ++coverage.freeShort;
        if (placed)
          return where + ": " + std::to_string(freeCells) +
                 " free cells for " + std::to_string(sources) +
                 " sources, yet a type placed every source";
      } else if (!sixPlaces) {
        ++coverage.sixFails;
      }
      if (!sixPlaces && placed)
        return where + ": Type Six placed no source set, yet a type did";

      for (bool allowEqualVoC : {true, false}) {
        const PushOptions options{allowEqualVoC};
        Partition copy = grid;
        const PushOutcome g = tryPush(copy, active, dir, options);
        const auto type =
            engine_detail::planPush(view, active, rects, voc, options, plan);
        if (type.has_value() != g.applied || (type && *type != g.type))
          return where + (allowEqualVoC ? "" : " (strict types)") +
                 ": planPush " + (type ? pushTypeName(*type) : "finds none") +
                 ", the grid's tryPush " +
                 (g.applied ? pushTypeName(g.type) : "applies none");
        if (allowEqualVoC && freeCells == sources && g.applied)
          ++coverage.boundaryApplied;
      }
    }
  return {};
}

/// Runs checkExits at each state of a push trajectory from q0 under
/// `schedule`, for at most `maxSweeps` sweeps, the two engines in lockstep.
std::string checkExitsAlongTrajectory(const Partition& q0,
                                      const Schedule& schedule, int maxSweeps,
                                      ExitCoverage& coverage) {
  Partition grid = q0;
  BitPartition bits(q0);
  for (int sweep = 0; sweep < maxSweeps; ++sweep) {
    bool any = false;
    for (const ScheduleSlot& slot : schedule.slots) {
      std::string diff = checkExits(grid, bits, coverage);
      if (!diff.empty())
        return "sweep " + std::to_string(sweep) + ": " + diff;
      const PushOutcome g = tryPush(grid, slot.active, slot.dir);
      const PushOutcome b = tryPush(bits, slot.active, slot.dir);
      if (g.applied != b.applied || !(grid == bits.grid()))
        return "sweep " + std::to_string(sweep) + ": the engines diverged";
      any = any || g.applied;
    }
    if (!any) break;
  }
  return {};
}

// The exits of planPush are exact: along the trajectories and the corpus the
// comparisons above walk, each exit fires only where every type fails, and
// planPush always picks the grid's type. Both exits must fire, and some push
// with exactly as many free cells as sources must apply.
TEST(BitsPlannerTest, PushExitsAreExactAndFire) {
  ExitCoverage coverage;
  for (int styleIdx = 0; styleIdx < kNumGenStyles; ++styleIdx) {
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
          checkExitsAlongTrajectory(q0, schedule, 6, coverage);
      ASSERT_TRUE(diff.empty())
          << genStyleName(static_cast<GenStyle>(styleIdx)) << " seed " << seed
          << " n " << n << ": " << diff;
    }
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
          checkExitsAlongTrajectory(q0, schedule, 2, coverage);
      ASSERT_TRUE(diff.empty())
          << genStyleName(static_cast<GenStyle>(styleIdx)) << " seed " << seed
          << " n " << n << ": " << diff;
    }
  }
  for (const std::string& path : corpusFiles(PUSHPART_CORPUS_DIR)) {
    const std::string diff = checkExitsAlongTrajectory(
        loadPartition(path), Schedule::full(), 3, coverage);
    ASSERT_TRUE(diff.empty()) << path << ": " << diff;
  }
  EXPECT_GT(coverage.freeShort, 0);
  EXPECT_GT(coverage.sixFails, 0);
  EXPECT_GT(coverage.boundaryApplied, 0);
}

/// A bitboard state that counts its writes: everything forwards to a
/// BitPartition, and swapCells() also counts each cell it writes.
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
  void swapCells(int i1, int j1, int i2, int j2) {
    if (bits_.at(i1, j1) != bits_.at(i2, j2)) writes_ += 2;
    bits_.swapCells(i1, j1, i2, j2);
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
