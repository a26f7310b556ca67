// State-generic Push + beautify engine.
//
// The legality ladder, the edge-clean scan, the transactional guards and the
// beautify/compaction passes are written once as templates over the state
// type Q. Two states instantiate them:
//
//   * Partition (src/grid)    — the element-exact reference,
//   * BitPartition (src/grid) — the same grid plus per-owner line bitsets.
//
// Both expose the same occupancy/counter API, including the owner count and
// the fastest owner (never pushed, never held to its rectangle): the grid
// carries any k ∈ [2, kMaxOwners] owners, the bitboard the paper's three as
// compile-time constants. So at three owners the engine's *decisions* (which
// destination each edge element takes, which type fires, the exact cell
// exchanges) are identical on both by construction; the differential suites
// in src/verify and tests/bits enforce that. The grid walks the reference cell
// scan (attemptType), writing each attempt through an undo log and rolling
// back what fails or the VoC guard rejects. States that expose owner bits
// (HasOwnerBits) instead plan each attempt without writing (planType): the
// destination scan reads 64 cells per word — the owners the owner-side
// predicates admit are ORed into a candidate word once per row, the active
// processor's column presence is ANDed in where the type's activeDest needs
// it, and std::countr_zero finds the first qualifying column, exactly the
// cell the reference's walk stops at. An overlay stands in for the few line
// facts the attempt's earlier exchanges would have written, the walk prices
// the plan's VoC as it writes the overlay, two exact exits skip the attempts
// no type can finish, and only the accepted plan is written, one cell swap
// per move (DESIGN.md §15, "Plan, then commit").
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
#include <type_traits>
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

/// Per-owner scratch for the transactional guards, on the stack: the
/// bitboard's three owners, or the grid's kMaxOwners.
template <typename Q>
inline constexpr std::size_t kOwnerSlots =
    HasOwnerBits<Q> ? std::size_t{kNumProcs} : std::size_t{kMaxOwners};

template <typename Q>
using OwnerRects = std::array<Rect, kOwnerSlots<std::remove_const_t<Q>>>;

/// Attempts the edge-clean under one type's predicates, appending all
/// mutations to `log`. Returns the number of elements moved, or std::nullopt
/// when some edge element found no legal destination (caller must roll back
/// `log`). This is the element-exact reference walk, for any owner count;
/// bitboard states plan the same walk read-only (planType below).
template <typename Q>
std::optional<int> attemptType(OrientedView<Q>& view, Proc active,
                               const TypeRule& rule,
                               const OwnerRects<Q>& rectBefore,
                               std::vector<CellUndo>& log) {
  const Rect r = view.rect(active);
  // The active processor needs interior rows to move into; a single-row
  // occupancy cannot be pushed without enlarging its enclosing rectangle.
  if (r.isEmpty() || r.height() < 2) return std::nullopt;
  const int k = r.rowBegin;

  // Columns of the active processor's elements on the edge row, gathered
  // before any mutation. k is the rectangle edge, so this is non-empty.
  std::vector<int> sources;
  for (int c = r.colBegin; c < r.colEnd; ++c)
    if (view.at(k, c) == active) sources.push_back(c);
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
    while (g > k && !found) {
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
            // The fastest owner (P) is exempt: logicalRects gives it the
            // whole grid.
            rectBefore[procSlot(owner)].contains(k, c)) {
          view.set(k, c, owner, log);
          view.set(g, h, active, log);
          found = true;
          ++h;
          break;
        }
        ++h;
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

/// One exchange of a planned edge-clean, in logical coordinates: the edge
/// cell (edge, col) passes from the active processor to `owner`, and the
/// destination (destRow, destCol), `owner`'s until then, becomes the active
/// processor's.
struct PlannedMove {
  int col;
  int destRow;
  int destCol;
  Proc owner;
};

/// A push attempt planned on a bitboard state without writing it: the moves
/// in the reference walk's order and the VoC they lead to. The bitboard holds
/// the paper's three owners, so the planner's per-owner arrays are fixed at
/// three and P is its fastest owner. The vectors below the moves are the
/// planner's working buffers, kept between attempts so that an attempt
/// allocates nothing once they have grown.
struct PushPlan {
  int edge = 0;  ///< Logical row being cleaned.
  std::vector<PlannedMove> moves;
  std::int64_t vocAfter = 0;

  std::vector<int> sources;
  /// The active processor's logical column presence, as the moves so far
  /// leave it.
  std::vector<std::uint64_t> activeCols;
  /// Per logical column, each owner's count change from the moves so far.
  /// All zero between attempts: whoever writes an entry clears it.
  std::vector<std::array<int, kNumProcs>> colDelta;
};

/// The calling thread's plan and planner buffers.
inline PushPlan& threadPlan() {
  thread_local PushPlan plan;
  return plan;
}

/// Plans the edge-clean under one type's predicates without writing: the
/// reference walk (attemptType) over the same sources with the same
/// monotone cursor, with the word-granular destination scan. Returns false
/// at the first source with no destination. On success `plan` holds the
/// moves and their VoC.
///
/// The walk reads the state plus an overlay of what the earlier moves of the
/// same attempt would have written. Cells at or past the cursor are never
/// written, so owner line words are read straight from the state; the only
/// facts an earlier move can change are (DESIGN.md §15, "Plan, then
/// commit"): whether a displaced owner is in the edge row, an owner's count
/// in a later source's column, the active processor's column presence, and
/// its count in the current destination row. The walk prices the plan as it
/// goes: VoC changes by n wherever an owner's count in a row or column rises
/// from zero or falls to zero, and each such change is an overlay write.
template <typename Q>
  requires HasOwnerBits<Q>
bool planType(const OrientedView<Q>& view, Proc active, const TypeRule& rule,
              const OwnerRects<Q>& rectBefore, std::int64_t vocBefore,
              PushPlan& plan) {
  plan.moves.clear();
  const Rect r = rectBefore[procSlot(active)];
  if (r.isEmpty() || r.height() < 2) return false;
  const int k = r.rowBegin;
  plan.edge = k;

  plan.sources.clear();
  const auto edge = view.lineBits(active, k);
  scanWords(r.colBegin, r.colEnd, [&](std::size_t w) { return edge[w]; },
            [&](int w, std::uint64_t bits) {
              for (; bits != 0; bits &= bits - 1)
                plan.sources.push_back(w * 64 + std::countr_zero(bits));
              return false;
            });
  if (plan.sources.empty()) return false;
  plan.moves.reserve(plan.sources.size());

  // The overlay. colDelta rows are all zero here.
  if (plan.colDelta.size() < static_cast<std::size_t>(view.n()))
    plan.colDelta.resize(static_cast<std::size_t>(view.n()));
  const auto presence = view.colPresenceBits(active);
  plan.activeCols.assign(presence.begin(), presence.end());
  std::array<bool, kNumProcs> inEdgeRow{};
  for (Proc x : kAllProcs) inEdgeRow[procSlot(x)] = view.rowHas(x, k);
  const std::size_t a = procSlot(active);
  int deltaRow = -1;  // the destination row rowDelta counts changes in
  std::array<int, kNumProcs> rowDelta{};

  // The change in Σc_i + Σc_j. The sources are all of the active
  // processor's cells in the edge row, so a complete plan empties the row of
  // them.
  int lineOwners = -1;

  int g = r.rowEnd - 1;
  int h = r.colBegin;
  bool complete = true;
  for (int c : plan.sources) {
    auto& sourceDelta = plan.colDelta[static_cast<std::size_t>(c)];
    // The owner-side predicates read only row k and column c, and nothing
    // changes while one source searches, so they are decided once per owner.
    std::array<Proc, kNumProcs - 1> admitted{};
    std::size_t numAdmitted = 0;
    for (Proc owner : kAllProcs)
      if (owner != active &&
          meets(rule.ownerPresence, inEdgeRow[procSlot(owner)],
                view.colCount(owner, c) + sourceDelta[procSlot(owner)] > 0) &&
          rectBefore[procSlot(owner)].contains(k, c))
        admitted[numAdmitted++] = owner;
    if (numAdmitted == 0) {  // no cell can qualify
      complete = false;
      break;
    }

    int hit = -1;
    while (g > k) {
      // Word-granular row visit. The active processor's cells never leave
      // its rectangle, so a row it fills across the rectangle's width holds
      // no destination — most rows of a condensed state, skipped in O(1).
      // rowActive is fixed for the visit, and under kAnd a false one fails
      // every h of the row. Only the activeDest requirement varies along the
      // row (through colHas(active, h)); where it binds, the presence word
      // is ANDed in.
      const int rowActiveCells =
          view.rowCount(active, g) + (g == deltaRow ? rowDelta[a] : 0);
      const bool rowActive = rowActiveCells > 0;
      if (rowActiveCells < r.width() &&
          (rule.activeDest != Req::kAnd || rowActive)) {
        const bool needCol = rule.activeDest == Req::kAnd ||
                             (rule.activeDest == Req::kOr && !rowActive);
        const std::uint64_t* activeCols = plan.activeCols.data();
        // At most two owners qualify; with one, its line is ORed twice.
        const auto first = view.lineBits(admitted[0], g);
        const auto second = view.lineBits(admitted[numAdmitted - 1], g);
        hit = firstBitIn(h, r.colEnd, [&](std::size_t w) {
          const std::uint64_t owned = first[w] | second[w];
          return needCol ? owned & activeCols[w] : owned;
        });
        if (hit >= 0) break;
      }
      h = r.colBegin;
      --g;
    }
    if (hit < 0) {
      complete = false;
      break;
    }

    // Record the exchange and write into the overlay what it changes,
    // pricing each line count the write moves off zero or onto it.
    const Proc owner = view.at(g, hit);
    const std::size_t o = procSlot(owner);
    plan.moves.push_back({c, g, hit, owner});
    if (!inEdgeRow[o]) {
      inEdgeRow[o] = true;
      ++lineOwners;
    }
    if (view.colCount(owner, c) + sourceDelta[o]++ == 0) ++lineOwners;
    if (view.colCount(active, c) + --sourceDelta[a] == 0) {
      plan.activeCols[static_cast<std::size_t>(c >> 6)] &=
          ~(std::uint64_t{1} << (c & 63));
      --lineOwners;
    }
    auto& destDelta = plan.colDelta[static_cast<std::size_t>(hit)];
    if (view.colCount(owner, hit) + --destDelta[o] == 0) --lineOwners;
    if (view.colCount(active, hit) + destDelta[a]++ == 0) ++lineOwners;
    plan.activeCols[static_cast<std::size_t>(hit >> 6)] |= std::uint64_t{1}
                                                           << (hit & 63);
    if (g != deltaRow) {
      deltaRow = g;
      rowDelta = {};
    }
    if (view.rowCount(active, g) + rowDelta[a]++ == 0) ++lineOwners;
    if (view.rowCount(owner, g) + --rowDelta[o] == 0) --lineOwners;
    h = hit + 1;  // do not hand the same destination to the next one
  }

  for (const PlannedMove& m : plan.moves) {
    plan.colDelta[static_cast<std::size_t>(m.col)] = {};
    plan.colDelta[static_cast<std::size_t>(m.destCol)] = {};
  }
  if (!complete) return false;
  plan.vocAfter = vocBefore + static_cast<std::int64_t>(view.n()) * lineOwners;
  return true;
}

/// The transactional VoC guard: Types One–Four must strictly lower VoC,
/// Five–Six may keep it.
inline bool vocAccepted(const TypeRule& rule, std::int64_t vocBefore,
                        std::int64_t vocAfter) {
  return rule.strictImprovement ? vocAfter < vocBefore : vocAfter <= vocBefore;
}

/// The rectangles the guards hold each owner to, in the view's logical
/// coordinates: every slow owner's enclosing rectangle, and the whole grid
/// for the fastest. The fastest owner's rectangle plays no role in VoC or
/// in future pushes, and holding it to the letter of §IV-A creates
/// artificial fixed points (a solid band with ragged edges whose improving
/// push would hand P a cell below P's current box — see DESIGN.md
/// deviation 6); the transactional VoC guard subsumes the rule's purpose.
template <typename Q>
OwnerRects<Q> logicalRects(const OrientedView<Q>& view) {
  OwnerRects<Q> rects;
  const auto& q = view.partition();
  for (int x = 0; x + 1 < q.owners(); ++x)
    rects[static_cast<std::size_t>(x)] = view.rect(procFromIndex(x));
  rects[procSlot(q.fastest())] = Rect{0, q.n(), 0, q.n()};
  return rects;
}

/// True when the active rectangle `r` (logical coordinates) has room for a
/// push: at least two rows, and at least as many interior cells the active
/// processor does not own as it has sources on its edge row. Every push type
/// sends each edge source to a distinct such cell, so a rectangle without
/// room fails them all. O(1).
template <typename Q>
bool enoughFreeCells(const OrientedView<Q>& view, Proc active, const Rect& r) {
  if (r.isEmpty() || r.height() < 2) return false;
  const std::int64_t sources = view.rowCount(active, r.rowBegin);
  const std::int64_t interior =
      static_cast<std::int64_t>(r.width()) * (r.height() - 1);
  return interior - (view.partition().count(active) - sources) >= sources;
}

/// The first push type, most restrictive first, whose plan passes the VoC
/// guard; `plan` then holds its moves. Writes nothing to the state.
///
/// Two exits answer "no push" before every type is planned, and both are
/// exact (DESIGN.md §15, "Plan, then commit"): a rectangle without enough
/// free cells (enoughFreeCells), and a failed Type Six scan after Type One
/// has failed. Type Six admits a superset of every type's destinations, read
/// from the state alone, so its greedy scan places every source whenever any
/// type's does: once Type One has failed to, a Type Six scan that fails too
/// fails the rest.
template <typename Q>
  requires HasOwnerBits<Q>
std::optional<PushType> planPush(const OrientedView<Q>& view, Proc active,
                                 const OwnerRects<Q>& rectBefore,
                                 std::int64_t vocBefore,
                                 const PushOptions& options, PushPlan& plan) {
  if (!enoughFreeCells(view, active, rectBefore[procSlot(active)]))
    return std::nullopt;

  for (PushType type : kAllPushTypes) {
    const TypeRule rule = ruleFor(type);
    if (!options.allowEqualVoC && !rule.strictImprovement) break;
    if (planType(view, active, rule, rectBefore, vocBefore, plan)) {
      if (vocAccepted(rule, vocBefore, plan.vocAfter)) return type;
    } else if (type == PushType::kType1 &&
               !planType(view, active, ruleFor(PushType::kType6), rectBefore,
                         vocBefore, plan)) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Refuses an active processor that is not a slow owner of q: the fastest
/// owner is never pushed (paper §VI-C), and ids past the owner count do not
/// exist.
template <typename Q>
void checkActive(const Q& q, Proc active) {
  PUSHPART_CHECK_MSG(procIndex(active) < q.owners() - 1,
                     "active processor " << procIndex(active)
                                         << " is not a slow owner of "
                                         << q.owners()
                                         << " (the fastest is never pushed)");
}

}  // namespace engine_detail

/// tryPush over any engine state (see push.hpp for the contract). The grid
/// applies each attempt through an undo log and rolls it back when it fails
/// or the VoC guard rejects it; a bitboard state plans each attempt and
/// writes only the accepted one.
template <typename Q>
PushOutcome tryPushState(Q& q, Proc active, Direction dir,
                         const PushOptions& options = {}) {
  engine_detail::checkActive(q, active);
  PushOutcome out;
  out.direction = dir;
  out.active = active;
  out.vocBefore = q.volumeOfCommunication();
  out.vocAfter = out.vocBefore;

  OrientedView<Q> view(q, dir);

  // Snapshot logical enclosing rectangles and counts for the transactional
  // guards.
  const engine_detail::OwnerRects<Q> rectBefore =
      engine_detail::logicalRects(view);
  std::array<std::int64_t, engine_detail::kOwnerSlots<Q>> countBefore{};
  for (int x = 0; x < q.owners(); ++x)
    countBefore[static_cast<std::size_t>(x)] = q.count(procFromIndex(x));

  if constexpr (HasOwnerBits<Q>) {
    engine_detail::PushPlan& plan = engine_detail::threadPlan();
    const auto type = engine_detail::planPush(view, active, rectBefore,
                                              out.vocBefore, options, plan);
    if (!type) return out;
    for (const engine_detail::PlannedMove& m : plan.moves) {
      PUSHPART_CHECK_MSG(view.at(plan.edge, m.col) == active &&
                             view.at(m.destRow, m.destCol) == m.owner,
                         "planned move from column "
                             << m.col << " to (" << m.destRow << ","
                             << m.destCol << ") finds other owners");
      view.swapCells(plan.edge, m.col, m.destRow, m.destCol);
    }
    PUSHPART_CHECK_MSG(q.volumeOfCommunication() == plan.vocAfter,
                       "committed VoC " << q.volumeOfCommunication()
                                        << " differs from the planned "
                                        << plan.vocAfter);
    out.type = *type;
    out.vocAfter = plan.vocAfter;
    out.elementsMoved = static_cast<int>(plan.moves.size());
  } else {
    bool accepted = false;
    for (PushType type : kAllPushTypes) {
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
      if (!engine_detail::vocAccepted(rule, out.vocBefore, vocAfter)) {
        rollback(q, log);
        continue;
      }
      out.type = type;
      out.vocAfter = vocAfter;
      out.elementsMoved = *moved;
      accepted = true;
      break;
    }
    if (!accepted) return out;
  }

  for (int i = 0; i < q.owners(); ++i) {
    const Proc x = procFromIndex(i);
    // The fastest owner's rectangle is unconstrained (logicalRects).
    PUSHPART_CHECK_MSG(rectBefore[procSlot(x)].contains(view.rect(x)),
                       "push enlarged the enclosing rectangle of owner " << i);
    PUSHPART_CHECK_MSG(q.count(x) == countBefore[procSlot(x)],
                       "push changed the element count of owner " << i);
  }
  out.applied = true;
  return out;
}

/// pushAvailable over any engine state (see push.hpp for the contract). A
/// bitboard state answers from plans alone; the grid tries each push on a
/// copy of the state.
template <typename Q>
bool pushAvailableState(const Q& q, Proc active,
                        std::span<const Direction> dirs,
                        const PushOptions& options = {}) {
  if constexpr (HasOwnerBits<Q>) {
    engine_detail::checkActive(q, active);
    engine_detail::PushPlan& plan = engine_detail::threadPlan();
    const std::int64_t voc = q.volumeOfCommunication();
    for (Direction d : dirs) {
      const OrientedView<const Q> view(q, d);
      if (engine_detail::planPush(view, active,
                                  engine_detail::logicalRects(view), voc,
                                  options, plan))
        return true;
    }
    return false;
  } else {
    Q copy = q;
    for (Direction d : dirs) {
      if (tryPushState(copy, active, d, options).applied) return true;
    }
    return false;
  }
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
        // Only holes owned by the fastest owner P may be swapped out.
        // Claiming another slow owner's cells would let the R and S
        // compactions displace each other back and forth at equal VoC —
        // a livelock. With P-only holes, each compaction is idempotent and
        // cannot disturb another slow owner's region.
        if (owner != q.fastest()) return false;
        gain.push_back({i, j});
      } else if (!targetIsX(i, j) && isX) {
        release.push_back({i, j});
      }
    }
  if (gain.empty()) return false;  // layout already achieved
  PUSHPART_CHECK(gain.size() == release.size());

  const std::int64_t vocBefore = q.volumeOfCommunication();
  const int slowOwners = q.owners() - 1;
  std::array<Rect, kOwnerSlots<Q>> rectBefore;
  for (int s = 0; s < slowOwners; ++s)
    rectBefore[static_cast<std::size_t>(s)] =
        q.enclosingRect(procFromIndex(s));

  std::vector<Proc> displaced;
  displaced.reserve(gain.size());
  for (const auto& [i, j] : gain) {
    displaced.push_back(q.at(i, j));
    q.set(i, j, x);
  }
  for (std::size_t k = 0; k < release.size(); ++k)
    q.set(release[k].first, release[k].second, displaced[k]);

  bool ok = q.volumeOfCommunication() <= vocBefore;
  // Only the slow owners' rectangles are constrained: they drive future
  // pushes and the archetype classification. P's enclosing rectangle is free
  // to change — it plays no role in VoC, and the paper's own Thm 8.2
  // transformations reshape enclosing rectangles as long as communication
  // does not increase.
  for (int s = 0; s < slowOwners; ++s) {
    const Rect after = q.enclosingRect(procFromIndex(s));
    ok = ok && rectBefore[static_cast<std::size_t>(s)].contains(after);
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
  // leftover cells to P (the fastest owner); if such a cell lands in a
  // column (row, for the column-major fills) where P appears nowhere outside
  // this rectangle, that line gains a third owner and VoC rises — the guard
  // would reject a re-layout the region actually admits. Ranking lanes so
  // that the ones P cannot otherwise cover are filled FIRST keeps the
  // vacated cells in P-covered lanes. With full P coverage the order
  // degenerates to the identity, so this subsumes the plain left-to-right
  // fills.
  const Proc fastest = q.fastest();
  std::vector<std::int64_t> colPos(static_cast<std::size_t>(rect.width()));
  std::vector<std::int64_t> rowPos(static_cast<std::size_t>(rect.height()));
  {
    std::vector<int> pInRectCol(static_cast<std::size_t>(rect.width()), 0);
    std::vector<int> pInRectRow(static_cast<std::size_t>(rect.height()), 0);
    for (int i = rb; i < re; ++i)
      for (int j = cb; j < ce; ++j)
        if (q.at(i, j) == fastest) {
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
      return q.colCount(fastest, j) - pInRectCol[lane] == 0;
    });
    assignPositions(rowPos, [&](std::size_t lane) {
      const int i = rb + static_cast<int>(lane);
      return q.rowCount(fastest, i) - pInRectRow[lane] == 0;
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
  // may grow, so the slow owners' Σ rectArea is a strictly decreasing
  // non-negative potential. Compaction keeps rectangles fixed and is
  // idempotent at a fixed state, so interleaving it cannot produce cycles.
  std::unordered_set<std::uint64_t> seen;  // belt-and-braces cycle guard
  bool any = true;
  while (any) {
    any = false;
    for (int s = 0; s + 1 < q.owners(); ++s) {
      for (Direction d : kAllDirections) {
        while (tryPushState(q, procFromIndex(s), d).applied) {
          ++result.pushesApplied;
          any = true;
        }
      }
    }
    for (int s = 0; s + 1 < q.owners(); ++s) {
      if (compactRegionState(q, procFromIndex(s))) any = true;
    }
    if (any && !seen.insert(q.hash()).second) break;
  }
  result.vocAfter = q.volumeOfCommunication();
  return result;
}

/// fullyCondensed over any engine state (see beautify.hpp for the contract).
template <typename Q>
bool fullyCondensedState(const Q& q) {
  for (int s = 0; s + 1 < q.owners(); ++s) {
    if (pushAvailableState(q, procFromIndex(s), kAllDirections, PushOptions{}))
      return false;
  }
  return true;
}

}  // namespace pushpart
