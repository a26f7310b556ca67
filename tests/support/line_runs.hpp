// Checks a LineCounts against the painted Partition it describes: the runs
// of each axis tile [0, N) in line order, every line of a run holds the
// grid's per-owner counts and distinct-owner count for that line, and the
// totals and VoC agree.
#pragma once

#include <gtest/gtest.h>

#include "grid/line_counts.hpp"
#include "grid/partition.hpp"

namespace pushpart {

inline void expectRunsMatchGrid(const LineCounts& lines, const Partition& q) {
  ASSERT_EQ(lines.n(), q.n());
  for (Axis axis : {Axis::kRows, Axis::kCols}) {
    const bool rows = axis == Axis::kRows;
    const char* name = rows ? "row" : "column";
    int next = 0;
    for (const LineRun& run : lines.runs(axis)) {
      ASSERT_EQ(run.begin, next) << name << " runs leave a gap or overlap";
      ASSERT_LT(run.begin, run.end) << "empty " << name << " run";
      for (int k = run.begin; k < run.end; ++k) {
        for (Proc x : kAllProcs)
          ASSERT_EQ(run.count[procSlot(x)],
                    rows ? q.rowCount(x, k) : q.colCount(x, k))
              << procName(x) << " in " << name << " " << k;
        ASSERT_EQ(run.procs(), rows ? q.procsInRow(k) : q.procsInCol(k))
            << name << " " << k;
      }
      next = run.end;
    }
    ASSERT_EQ(next, q.n()) << name << " runs stop short";
  }
  for (Proc x : kAllProcs)
    EXPECT_EQ(lines.count(x), q.count(x)) << procName(x);
  EXPECT_EQ(lines.volumeOfCommunication(), q.volumeOfCommunication());
}

}  // namespace pushpart
