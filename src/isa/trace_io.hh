/**
 * @file
 * Binary serialization for programs and golden traces.
 *
 * The paper's experiments replay each benchmark under many machine
 * configurations; serializing the golden execution lets harnesses and
 * the command-line driver generate a trace once and reuse it across
 * sweeps (and lets users archive reproducible inputs). The format is a
 * simple explicit little-endian stream with a magic/version header —
 * files are portable across hosts.
 *
 * Format (version 3):
 *   magic "ICFPTRC3"
 *   program: name, code (one record per instruction), data image as
 *     its size plus its non-zero words (count + ascending
 *     (addr, value) pairs: the image as a delta against zeroes)
 *   dynamic instructions (count + packed records: pc, nextPc, op,
 *     dst/src1/src2, addr, value, flags)
 *   final register file, final memory as a delta against the initial
 *     image (count + ascending (addr, value) pairs), halted flag
 *
 * Both pair lists share one encoder and one decoder, which rejects an
 * unaligned or out-of-range address, a duplicate or descending one, a
 * word equal to its base (zero, for the image), and a count larger than
 * the image's word count. Every count is checked against the bytes the
 * stream holds before anything is allocated for it.
 */

#ifndef ICFP_ISA_TRACE_IO_HH
#define ICFP_ISA_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace icfp {

/**
 * Trace generator semantics version, embedded in every persisted-trace
 * key and grid fingerprint. A content hash only proves a file holds
 * what was written, not that what was written is what today's code
 * would generate — so BUMP THIS whenever the shared generator machinery
 * or the functional interpreter changes the traces it produces
 * (src/workloads/kernels.cc, src/isa/interpreter.cc). A change to ONE
 * benchmark's definition is covered more precisely by that benchmark's
 * BenchmarkSpec::defVersion, which keys alongside this; serialization
 * changes are covered by kTraceIoFormatVersion below.
 */
constexpr unsigned kTraceGenVersion = 1;

/**
 * Serialization format version. Must stay in lockstep with the trailing
 * digit of the "ICFPTRC3"/"ICFPPRG3" magics in trace_io.cc: bump both
 * whenever the encoding changes (field added, reordered, or re-typed).
 * Consumers that persist traces (sim/trace_store.hh) embed this in
 * their cache keys so files in an old encoding are regenerated, never
 * parsed (readTrace is fatal on undecodable input).
 *
 * Version 2 packed the DynInst record (merged result/store value, flags
 * byte) alongside the in-memory DynInst repack. Version 3 stores memory
 * images sparsely: workload images run to 64 MB with under 1% of their
 * words non-zero.
 */
constexpr unsigned kTraceIoFormatVersion = 3;

/** Serialize @p program to @p os. */
void writeProgram(std::ostream &os, const Program &program);

/** Deserialize a Program; fatal on malformed input. */
Program readProgram(std::istream &is);

/** Serialize a complete golden trace (program included) to @p os. */
void writeTrace(std::ostream &os, const Trace &trace);

/** Append the serialization of @p trace to @p out. */
void writeTrace(std::string &out, const Trace &trace);

/** Deserialize a Trace; fatal on malformed input. */
Trace readTrace(std::istream &is);

/** Deserialize the Trace encoded in @p bytes, in place; fatal on
 *  malformed input. */
Trace readTrace(std::string_view bytes);

/** Convenience: write @p trace to @p path (fatal on I/O failure). */
void saveTraceFile(const std::string &path, const Trace &trace);

/** Convenience: read a trace from @p path (fatal on I/O failure). */
Trace loadTraceFile(const std::string &path);

} // namespace icfp

#endif // ICFP_ISA_TRACE_IO_HH
