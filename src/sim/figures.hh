/**
 * @file
 * The paper's evaluation as library data: one row per figure or table
 * this simulator regenerates — Figures 5–8, Table 2, the Section 5.3
 * out-of-order and area numbers, and the ablation, chain-table,
 * poison-bit, MP-safety, SMT and non-SPEC studies.
 *
 * A row is a name plus a run function, not a single SweepSpec: some
 * figures run several grids on one engine (ablation), derive a second
 * grid from the first one's cycles (mp_safety), co-run two traces
 * outside the grid (smt_tradeoff) or simulate nothing (area_overheads).
 * Each run function fixes its own configs, runs on the caller's engine
 * (so figures share its worker threads), and returns the rendered
 * tables plus the raw grid behind them. The engine frees each grid's
 * traces when that run() ends, so two grids over the same benches each
 * generate their traces again; a figure that needs a trace after its
 * grid asks SweepEngine::trace() for it first.
 *
 * `icfp-sim figure NAME...` prints them; tests/test_golden.cc pins every
 * row's tables at 20k insts against tests/golden/figures/NAME_20k.txt.
 *
 * @code
 *   SweepEngine engine(4);
 *   const FigureOutput out = findFigure("fig5_speedup")->run(engine, 20000);
 *   std::fputs(figureText(out).c_str(), stdout);
 *   std::string csv = sweepCsv(out.grid);
 * @endcode
 */

#ifndef ICFP_SIM_FIGURES_HH
#define ICFP_SIM_FIGURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/report.hh"
#include "sim/sweep.hh"

namespace icfp {

/** What one figure produced: its tables in print order, and every grid
 *  cell they were computed from, in run order. */
struct FigureOutput
{
    std::vector<Table> tables;
    std::vector<SweepResult> grid;
};

/** One paper figure or table. */
struct Figure
{
    const char *name; ///< e.g. "fig5_speedup"
    FigureOutput (*run)(SweepEngine &engine, uint64_t insts);
};

/** Every figure, in the order `icfp-sim figure` lists them. */
const std::vector<Figure> &figures();

/** The figure called @p name, or nullptr. */
const Figure *findFigure(const std::string &name);

/** @p output's tables as text, separated by one blank line. */
std::string figureText(const FigureOutput &output);

} // namespace icfp

#endif // ICFP_SIM_FIGURES_HH
