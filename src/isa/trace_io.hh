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
 * Format (version 2):
 *   magic "ICFPTRC2"
 *   program: name, code (one record per instruction), data image
 *   dynamic instructions (count + packed records: pc, nextPc, op,
 *     dst/src1/src2, addr, value, flags)
 *   final register file, final memory as a delta against the initial
 *     image (count + ascending (addr, value) pairs), halted flag
 */

#ifndef ICFP_ISA_TRACE_IO_HH
#define ICFP_ISA_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace icfp {

/**
 * Serialization format version. Must stay in lockstep with the trailing
 * digit of the "ICFPTRC2"/"ICFPPRG2" magics in trace_io.cc: bump both
 * whenever the encoding changes (field added, reordered, or re-typed).
 * Consumers that persist traces (sim/trace_store.hh) embed this in
 * their cache keys so files in an old encoding are regenerated, never
 * parsed (readTrace is fatal on undecodable input).
 *
 * Version 2 packed the DynInst record (merged result/store value, flags
 * byte) alongside the in-memory DynInst repack.
 */
constexpr unsigned kTraceIoFormatVersion = 2;

/** Serialize @p program to @p os. */
void writeProgram(std::ostream &os, const Program &program);

/** Deserialize a Program; fatal on malformed input. */
Program readProgram(std::istream &is);

/** Serialize a complete golden trace (program included) to @p os. */
void writeTrace(std::ostream &os, const Trace &trace);

/** Deserialize a Trace; fatal on malformed input. */
Trace readTrace(std::istream &is);

/** Convenience: write @p trace to @p path (fatal on I/O failure). */
void saveTraceFile(const std::string &path, const Trace &trace);

/** Convenience: read a trace from @p path (fatal on I/O failure). */
Trace loadTraceFile(const std::string &path);

} // namespace icfp

#endif // ICFP_ISA_TRACE_IO_HH
