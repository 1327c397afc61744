// Package report renders experiment results as titled tables of
// formatted cells in four interchangeable formats: aligned text (for
// terminals), CSV (for spreadsheets and plotting scripts), GitHub
// Markdown (for the generated documentation, notably EXPERIMENTS.md),
// and JSON lines (for machine consumers; round-trippable through
// ParseJSONLines).
//
// The building blocks compose in three layers:
//
//   - Table is the unit of output: a titled grid of cells plus notes.
//   - Renderer writes one Table in one Format; NewRenderer picks the
//     implementation.
//   - Writer streams a whole document — an optional preamble followed
//     by any number of tables — so long experiment runs emit each
//     table as soon as it is computed.
//
// Renderers are streaming and allocation-conscious: they buffer writes,
// reuse scratch space across rows, and never materialize the rendered
// document in memory.
package report
