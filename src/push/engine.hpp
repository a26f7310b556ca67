// State-generic Push + beautify engine.
//
// The legality ladder, the edge-clean scan, the transactional guards and the
// beautify/compaction passes are written once as templates over the state
// type Q. Two states instantiate them:
//
//   * Partition (src/grid)    — the element-exact reference,
//   * BitPartition (src/grid) — the same grid plus per-owner line bitsets.
//
// Both expose the same occupancy/counter API, so the engine's *decisions*
// (which destination each edge element takes, which type fires, the exact
// cell exchanges) are identical by construction; the differential suite in
// src/verify locksteps the two instantiations to enforce that. For states
// that expose owner bits (HasOwnerBits), the destination scan reads 64 cells
// per word instead of one per step: the owner-side predicates cannot change
// while one edge element searches, so the owners they admit are ORed into a
// candidate word once per row, the active processor's column presence is
// ANDed in where the type's activeDest needs it, and std::countr_zero finds
// the first qualifying column — exactly the cell the reference's walk stops
// at, so the chosen destination is provably the same.
//
// The non-template entry points in push.hpp / beautify.hpp are the public
// API for both states; this header is for engine instantiation.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "grid/metrics.hpp"
#include "push/beautify.hpp"
#include "push/direction.hpp"
#include "push/oriented.hpp"
#include "push/push.hpp"
#include "support/check.hpp"

namespace pushpart {

namespace engine_detail {

/// How strongly a predicate binds: both the row and the column, either one,
/// or not at all.
enum class Req { kAnd, kOr, kNone };

/// Legality profile of one push type (see push.hpp for the ladder).
struct TypeRule {
  /// Requirement that the *destination* cell lies in a row/column already
  /// containing the active processor (controls how many rows/columns the
  /// active processor may dirty).
  Req activeDest;
  /// Requirement that the *displaced owner* already has elements in the
  /// cleaned row and the vacated column (controls how much the owner
  /// dirties row k / column c when it takes over the vacated cell).
  Req ownerPresence;
  /// Types One–Four must strictly lower VoC; Five–Six may keep it equal.
  bool strictImprovement;
};

constexpr TypeRule ruleFor(PushType t) {
  switch (t) {
    case PushType::kType1: return {Req::kAnd, Req::kAnd, true};
    case PushType::kType2: return {Req::kAnd, Req::kOr, true};
    case PushType::kType3: return {Req::kOr, Req::kAnd, true};
    case PushType::kType4: return {Req::kOr, Req::kNone, true};
    case PushType::kType5: return {Req::kNone, Req::kAnd, false};
    case PushType::kType6: return {Req::kNone, Req::kNone, false};
  }
  return {Req::kAnd, Req::kAnd, true};
}

inline bool meets(Req req, bool inRow, bool inCol) {
  switch (req) {
    case Req::kAnd: return inRow && inCol;
    case Req::kOr: return inRow || inCol;
    case Req::kNone: return true;
  }
  return false;
}

/// Visits the words of a line that overlap [from, to), in increasing order,
/// as visit(w, bits) with bits = word(w) cleared outside the range (below
/// `from` in the first word, from `to` on in the last). Stops early, and
/// returns true, once visit does.
template <typename WordFn, typename Visit>
bool scanWords(int from, int to, WordFn word, Visit visit) {
  if (from >= to) return false;
  const int first = from >> 6;
  const int last = (to - 1) >> 6;
  const std::uint64_t head = ~std::uint64_t{0} << (from & 63);
  const std::uint64_t tail =
      (to & 63) != 0 ? (std::uint64_t{1} << (to & 63)) - 1 : ~std::uint64_t{0};
  for (int w = first; w <= last; ++w) {
    std::uint64_t bits = word(static_cast<std::size_t>(w));
    if (w == first) bits &= head;
    if (w == last) bits &= tail;
    if (visit(w, bits)) return true;
  }
  return false;
}

/// Index of the first set bit in [from, to) of the line, or -1.
template <typename WordFn>
int firstBitIn(int from, int to, WordFn word) {
  int hit = -1;
  scanWords(from, to, word, [&](int w, std::uint64_t bits) {
    if (bits == 0) return false;
    hit = w * 64 + std::countr_zero(bits);
    return true;
  });
  return hit;
}

/// Attempts the edge-clean under one type's predicates, appending all
/// mutations to `log`. Returns the number of elements moved, or std::nullopt
/// when some edge element found no legal destination (caller must roll back
/// `log`).
template <typename Q>
std::optional<int> attemptType(OrientedView<Q>& view, Proc active,
                               const TypeRule& rule,
                               const std::array<Rect, kNumProcs>& rectBefore,
                               std::vector<CellUndo>& log) {
  const Rect r = view.rect(active);
  // The active processor needs interior rows to move into; a single-row
  // occupancy cannot be pushed without enlarging its enclosing rectangle.
  if (r.isEmpty() || r.height() < 2) return std::nullopt;
  const int k = r.rowBegin;

  // Columns of the active processor's elements on the edge row, gathered
  // before any mutation. k is the rectangle edge, so this is non-empty.
  std::vector<int> sources;
  if constexpr (HasOwnerBits<Q>) {
    const auto edge = view.lineBits(active, k);
    sources.reserve(static_cast<std::size_t>(r.width()));
    scanWords(r.colBegin, r.colEnd, [&](std::size_t w) { return edge[w]; },
              [&](int w, std::uint64_t bits) {
                for (; bits != 0; bits &= bits - 1)
                  sources.push_back(w * 64 + std::countr_zero(bits));
                return false;
              });
  } else {
    for (int c = r.colBegin; c < r.colEnd; ++c)
      if (view.at(k, c) == active) sources.push_back(c);
  }
  if (sources.empty()) return std::nullopt;

  // Monotone destination cursor over the rectangle interior, as in the
  // paper's findTypeOne pseudocode: the scan resumes where the previous
  // element's search stopped. Unlike the paper's top-down scan we walk the
  // rows *far-edge-first* (bottom-up for a Down push): relocated elements
  // fill the holes farthest from the advancing clean edge, so leftover
  // raggedness collects in the edge line and the condensed region stays
  // asymptotically rectangular instead of fossilising interior holes it can
  // no longer clean.
  int g = r.rowEnd - 1;
  int h = r.colBegin;

  for (int c : sources) {
    bool found = false;
    // Bitboard states decide the owner-side predicates once per source.
    // Nothing mutates between here and the accept, so the displaced owner's
    // presence in row k / column c and rectangle containment of (k, c) are
    // fixed for this source and depend only on the owner — as in the
    // reference's cell walk, where they are re-evaluated per cell but cannot
    // change. The predicates are pure, so the reordering is outcome-neutral.
    [[maybe_unused]] std::array<Proc, kNumProcs - 1> admitted{};
    [[maybe_unused]] std::size_t numAdmitted = 0;
    if constexpr (HasOwnerBits<Q>) {
      for (Proc owner : kAllProcs)
        if (owner != active &&
            meets(rule.ownerPresence, view.rowHas(owner, k),
                  view.colHas(owner, c)) &&
            (owner == Proc::P || rectBefore[procSlot(owner)].contains(k, c)))
          admitted[numAdmitted++] = owner;
      if (numAdmitted == 0) return std::nullopt;  // no cell can qualify
    }
    while (g > k && !found) {
      if constexpr (HasOwnerBits<Q>) {
        // Word-granular row visit. The active processor's cells never leave
        // its rectangle, so a row it fills across the rectangle's width
        // holds no destination — most rows of a condensed state, skipped in
        // O(1). rowActive is fixed for the visit, and under kAnd a false one
        // fails every h of the row. Only the activeDest requirement varies
        // along the row (through colHas(active, h)); where it binds, the
        // presence word is ANDed in.
        const int rowActiveCells = view.rowCount(active, g);
        const bool rowActive = rowActiveCells > 0;
        if (rowActiveCells < r.width() &&
            (rule.activeDest != Req::kAnd || rowActive)) {
          const bool needCol = rule.activeDest == Req::kAnd ||
                               (rule.activeDest == Req::kOr && !rowActive);
          const auto activeCols = view.colPresenceBits(active);
          // At most two owners qualify; with one, its line is ORed twice.
          const auto first = view.lineBits(admitted[0], g);
          const auto second = view.lineBits(admitted[numAdmitted - 1], g);
          const int hit = firstBitIn(h, r.colEnd, [&](std::size_t w) {
            const std::uint64_t owned = first[w] | second[w];
            return needCol ? owned & activeCols[w] : owned;
          });
          if (hit >= 0) {
            // Exchange: the owner inherits the vacated edge cell, the
            // active processor moves inward.
            view.set(k, c, view.at(g, hit), log);
            view.set(g, hit, active, log);
            found = true;
            h = hit + 1;  // do not hand the same destination to the next one
          }
        }
      } else {
        while (h < r.colEnd) {
          const Proc owner = view.at(g, h);
          if (owner != active &&
              meets(rule.activeDest, view.rowHas(active, g),
                    view.colHas(active, h)) &&
              meets(rule.ownerPresence, view.rowHas(owner, k),
                    view.colHas(owner, c)) &&
              // The owner takes over (k, c); keeping that inside its pre-push
              // enclosing rectangle guarantees no rectangle grows (§IV-A
              // precondition). Presence in row k and column c already implies
              // containment, so this only bites for the laxer owner rules.
              // The fastest processor P is exempt: its rectangle plays no role
              // in VoC or in future pushes, and holding it to the letter of
              // §IV-A creates artificial fixed points (a solid band with
              // ragged edges whose improving push would hand P a cell below
              // P's current box — see DESIGN.md deviation 6). The
              // transactional VoC guard in tryPushState subsumes the rule's
              // purpose.
              (owner == Proc::P ||
               rectBefore[procSlot(owner)].contains(k, c))) {
            view.set(k, c, owner, log);
            view.set(g, h, active, log);
            found = true;
            ++h;
            break;
          }
          ++h;
        }
      }
      if (!found) {
        h = r.colBegin;
        --g;
      }
    }
    if (!found) return std::nullopt;
  }
  return static_cast<int>(sources.size());
}

}  // namespace engine_detail

/// tryPush over any engine state (see push.hpp for the contract).
template <typename Q>
PushOutcome tryPushState(Q& q, Proc active, Direction dir,
                         const PushOptions& options = {}) {
  PUSHPART_CHECK_MSG(active != Proc::P,
                     "the fastest processor P is never the active processor");
  PushOutcome out;
  out.direction = dir;
  out.active = active;
  out.vocBefore = q.volumeOfCommunication();
  out.vocAfter = out.vocBefore;

  OrientedView<Q> view(q, dir);

  // Snapshot logical enclosing rectangles and counts for the transactional
  // guards.
  std::array<Rect, kNumProcs> rectBefore;
  std::array<std::int64_t, kNumProcs> countBefore{};
  for (Proc x : kAllProcs) {
    rectBefore[procSlot(x)] = view.rect(x);
    countBefore[procSlot(x)] = q.count(x);
  }

  for (PushType type :
       {PushType::kType1, PushType::kType2, PushType::kType3, PushType::kType4,
        PushType::kType5, PushType::kType6}) {
    const engine_detail::TypeRule rule = engine_detail::ruleFor(type);
    if (!options.allowEqualVoC && !rule.strictImprovement) break;

    std::vector<CellUndo> log;
    const auto moved =
        engine_detail::attemptType(view, active, rule, rectBefore, log);
    if (!moved) {
      rollback(q, log);
      continue;
    }

    // Transactional guards: the paper's guarantees, enforced exactly.
    const std::int64_t vocAfter = q.volumeOfCommunication();
    const bool vocOk = rule.strictImprovement ? (vocAfter < out.vocBefore)
                                              : (vocAfter <= out.vocBefore);
    if (!vocOk) {
      rollback(q, log);
      continue;
    }
    for (Proc x : kAllProcs) {
      // P's rectangle is unconstrained (see the finder comment above).
      PUSHPART_CHECK_MSG(
          x == Proc::P || rectBefore[procSlot(x)].contains(view.rect(x)),
          "push enlarged the enclosing rectangle of " << procName(x));
      PUSHPART_CHECK_MSG(q.count(x) == countBefore[procSlot(x)],
                         "push changed the element count of " << procName(x));
    }

    out.applied = true;
    out.type = type;
    out.vocAfter = vocAfter;
    out.elementsMoved = *moved;
    return out;
  }

  return out;
}

/// pushAvailable over any engine state (copies a scratch state and rolls
/// attempts on the copy).
template <typename Q>
bool pushAvailableState(const Q& q, Proc active,
                        std::span<const Direction> dirs,
                        const PushOptions& options = {}) {
  Q scratch = q;
  for (Direction d : dirs) {
    if (tryPushState(scratch, active, d, options).applied) return true;
  }
  return false;
}

namespace engine_detail {

/// One attempted re-layout of x inside its enclosing rectangle, filling in
/// the order given by `rank` (a bijection from rect cells to 0..area-1; the
/// first count(x) ranks become x's). Commits only when the guard passes.
/// The right orientation depends on context — e.g. a full-matrix-width
/// region must keep every row occupied (a partial top row would newly dirty
/// that row with the displaced owner), so its partial line has to be a
/// column — hence the caller tries several orientations.
template <typename Q, typename RankFn>
bool tryCompactLayout(Q& q, Proc x, const Rect& rect, RankFn rank) {
  const std::int64_t own = q.count(x);
  auto targetIsX = [&](int i, int j) { return rank(i, j) < own; };

  std::vector<std::pair<int, int>> gain, release;
  for (int i = rect.rowBegin; i < rect.rowEnd; ++i)
    for (int j = rect.colBegin; j < rect.colEnd; ++j) {
      const Proc owner = q.at(i, j);
      const bool isX = owner == x;
      if (targetIsX(i, j) && !isX) {
        // Only holes owned by the fastest processor P may be swapped out.
        // Claiming the other slow processor's cells would let the R and S
        // compactions displace each other back and forth at equal VoC —
        // a livelock. With P-only holes, each compaction is idempotent and
        // cannot disturb the other slow processor's region.
        if (owner != Proc::P) return false;
        gain.push_back({i, j});
      } else if (!targetIsX(i, j) && isX) {
        release.push_back({i, j});
      }
    }
  if (gain.empty()) return false;  // layout already achieved
  PUSHPART_CHECK(gain.size() == release.size());

  const std::int64_t vocBefore = q.volumeOfCommunication();
  std::array<Rect, kNumProcs> rectBefore;
  for (Proc p : kAllProcs) rectBefore[procSlot(p)] = q.enclosingRect(p);

  std::vector<Proc> displaced;
  displaced.reserve(gain.size());
  for (const auto& [i, j] : gain) {
    displaced.push_back(q.at(i, j));
    q.set(i, j, x);
  }
  for (std::size_t k = 0; k < release.size(); ++k)
    q.set(release[k].first, release[k].second, displaced[k]);

  bool ok = q.volumeOfCommunication() <= vocBefore;
  // Only the slow processors' rectangles are constrained: they drive future
  // pushes and the archetype classification. P's enclosing rectangle is free
  // to change — it plays no role in VoC, and the paper's own Thm 8.2
  // transformations reshape enclosing rectangles as long as communication
  // does not increase.
  for (Proc p : kSlowProcs) {
    const Rect after = q.enclosingRect(p);
    ok = ok && rectBefore[procSlot(p)].contains(after);
  }
  if (!ok) {
    for (std::size_t k = 0; k < release.size(); ++k)
      q.set(release[k].first, release[k].second, x);
    for (std::size_t k = 0; k < gain.size(); ++k)
      q.set(gain[k].first, gain[k].second, displaced[k]);
    return false;
  }
  return true;
}

}  // namespace engine_detail

/// compactRegion over any engine state (see beautify.hpp for the contract).
template <typename Q>
bool compactRegionState(Q& q, Proc x) {
  const Rect rect = q.enclosingRect(x);
  if (rect.isEmpty()) return false;
  if (q.count(x) == rect.area()) return false;  // already solid
  // Already in normal form: leave it alone. This is also what makes
  // compaction idempotent — every committed layout below ends
  // asymptotically rectangular, so a second call is a no-op rather than an
  // equal-VoC oscillation between fill orientations.
  if (isAsymptoticallyRectangular(q, x)) return false;

  const auto W = static_cast<std::int64_t>(rect.width());
  const auto H = static_cast<std::int64_t>(rect.height());
  const int rb = rect.rowBegin, re = rect.rowEnd;
  const int cb = rect.colBegin, ce = rect.colEnd;

  // Coverage-aware lane ordering. The re-layout's partial line hands its
  // leftover cells to P; if such a cell lands in a column (row, for the
  // column-major fills) where P appears nowhere outside this rectangle, that
  // line gains a third owner and VoC rises — the guard would reject a
  // re-layout the region actually admits. Ranking lanes so that the ones P
  // cannot otherwise cover are filled FIRST keeps the vacated cells in
  // P-covered lanes. With full P coverage the order degenerates to the
  // identity, so this subsumes the plain left-to-right fills.
  std::vector<std::int64_t> colPos(static_cast<std::size_t>(rect.width()));
  std::vector<std::int64_t> rowPos(static_cast<std::size_t>(rect.height()));
  {
    std::vector<int> pInRectCol(static_cast<std::size_t>(rect.width()), 0);
    std::vector<int> pInRectRow(static_cast<std::size_t>(rect.height()), 0);
    for (int i = rb; i < re; ++i)
      for (int j = cb; j < ce; ++j)
        if (q.at(i, j) == Proc::P) {
          ++pInRectCol[static_cast<std::size_t>(j - cb)];
          ++pInRectRow[static_cast<std::size_t>(i - rb)];
        }
    auto assignPositions = [](std::vector<std::int64_t>& pos,
                              auto needsCoverage) {
      std::int64_t next = 0;
      for (std::size_t lane = 0; lane < pos.size(); ++lane)
        if (needsCoverage(lane)) pos[lane] = next++;
      for (std::size_t lane = 0; lane < pos.size(); ++lane)
        if (!needsCoverage(lane)) pos[lane] = next++;
    };
    assignPositions(colPos, [&](std::size_t lane) {
      const int j = cb + static_cast<int>(lane);
      return q.colCount(Proc::P, j) - pInRectCol[lane] == 0;
    });
    assignPositions(rowPos, [&](std::size_t lane) {
      const int i = rb + static_cast<int>(lane);
      return q.rowCount(Proc::P, i) - pInRectRow[lane] == 0;
    });
  }

  // Four fill orientations; the partial line lands on the top row, bottom
  // row, right column or left column respectively. The first admissible
  // re-layout wins.
  const auto partialTop = [&, W](int i, int j) {
    return static_cast<std::int64_t>(re - 1 - i) * W +
           colPos[static_cast<std::size_t>(j - cb)];
  };
  const auto partialBottom = [&, W](int i, int j) {
    return static_cast<std::int64_t>(i - rb) * W +
           colPos[static_cast<std::size_t>(j - cb)];
  };
  const auto partialRight = [&, H](int i, int j) {
    return static_cast<std::int64_t>(j - cb) * H +
           rowPos[static_cast<std::size_t>(i - rb)];
  };
  const auto partialLeft = [&, H](int i, int j) {
    return static_cast<std::int64_t>(ce - 1 - j) * H +
           rowPos[static_cast<std::size_t>(i - rb)];
  };

  using engine_detail::tryCompactLayout;
  if (tryCompactLayout(q, x, rect, partialTop) ||
      tryCompactLayout(q, x, rect, partialBottom) ||
      tryCompactLayout(q, x, rect, partialRight) ||
      tryCompactLayout(q, x, rect, partialLeft))
    return true;

  // Whole-rectangle fills can fail when the region is *fragmented*: stripes
  // separated by untouched rows/columns have a smaller line footprint than
  // the enclosing rectangle, so filling the rectangle would dirty the gap
  // lines and the guard rejects it. But a solid box of exactly
  // rowsUsed × colsUsed dimensions has the same line footprint — and hence
  // the same VoC — as the fragmented region. Try that box anchored in each
  // corner of the enclosing rectangle (the guard still arbitrates).
  const auto rowsUsed = static_cast<std::int64_t>(q.rowsUsed(x));
  const auto colsUsed = static_cast<std::int64_t>(q.colsUsed(x));
  if (rowsUsed >= H && colsUsed >= W) return false;  // no smaller box exists

  const auto boxRank = [&](const Rect& box, bool fromBottom) {
    return [box, fromBottom](int i, int j) -> std::int64_t {
      if (!box.contains(i, j))
        return std::numeric_limits<std::int64_t>::max();
      const std::int64_t row =
          fromBottom ? (box.rowEnd - 1 - i) : (i - box.rowBegin);
      return row * box.width() + (j - box.colBegin);
    };
  };
  const int bh = static_cast<int>(rowsUsed);
  const int bw = static_cast<int>(colsUsed);
  const Rect corners[4] = {
      Rect{re - bh, re, cb, cb + bw},  // bottom-left
      Rect{re - bh, re, ce - bw, ce},  // bottom-right
      Rect{rb, rb + bh, cb, cb + bw},  // top-left
      Rect{rb, rb + bh, ce - bw, ce},  // top-right
  };
  for (const Rect& box : corners) {
    for (bool fromBottom : {true, false}) {
      if (tryCompactLayout(q, x, rect, boxRank(box, fromBottom))) return true;
    }
  }
  return false;
}

/// beautify over any engine state (see beautify.hpp for the contract).
template <typename Q>
BeautifyResult beautifyState(Q& q) {
  BeautifyResult result;
  result.vocBefore = q.volumeOfCommunication();
  // Pushes of all types are allowed, including the VoC-preserving Types Five
  // and Six: termination is guaranteed because every applied push strictly
  // shrinks the active processor's enclosing-rectangle area (its edge row is
  // cleaned and destinations lie strictly inside) while no other rectangle
  // may grow, so Σ rectArea(R) + rectArea(S) is a strictly decreasing
  // non-negative potential. Compaction keeps rectangles fixed and is
  // idempotent at a fixed state, so interleaving it cannot produce cycles.
  std::unordered_set<std::uint64_t> seen;  // belt-and-braces cycle guard
  bool any = true;
  while (any) {
    any = false;
    for (Proc active : kSlowProcs) {
      for (Direction d : kAllDirections) {
        while (tryPushState(q, active, d).applied) {
          ++result.pushesApplied;
          any = true;
        }
      }
    }
    for (Proc active : kSlowProcs) {
      if (compactRegionState(q, active)) any = true;
    }
    if (any && !seen.insert(q.hash()).second) break;
  }
  result.vocAfter = q.volumeOfCommunication();
  return result;
}

/// fullyCondensed over any engine state (see beautify.hpp for the contract).
template <typename Q>
bool fullyCondensedState(const Q& q) {
  for (Proc active : kSlowProcs) {
    if (pushAvailableState(q, active, kAllDirections, PushOptions{}))
      return false;
  }
  return true;
}

}  // namespace pushpart
