/**
 * @file
 * Binary trace file format plus reader/writer. The format is a small
 * fixed header followed by fixed-width little-endian records:
 *
 *   header:  magic "SBTR" | u32 version | u64 record count
 *   record:  u64 address  | u64 pc | u8 type | u8 size | u16 pad (zero)
 *
 * This substitutes for the paper's Shade trace files: traces can be
 * captured once from a workload generator and replayed into many
 * simulator configurations.
 *
 * Integrity rules:
 *  - the writer verifies every record write and the final header
 *    rewrite, so a full disk can never leave a header that claims
 *    records the file does not hold;
 *  - the reader distinguishes a *clean* truncation (the file ends on
 *    a record boundary short of the header count — warn and stop)
 *    from a *torn* record (a partial record at the end — fatal,
 *    because the bytes before the tear cannot be trusted either);
 *  - records with a zero or non-power-of-two size, or nonzero padding
 *    bytes, are rejected as corrupt/foreign data before their fields
 *    can reach the cache index math.
 */

#ifndef STREAMSIM_TRACE_FILE_TRACE_HH
#define STREAMSIM_TRACE_FILE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "trace/source.hh"

namespace sbsim {

/** Streams MemAccess records into a binary trace file. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);

    /**
     * Write into a caller-supplied stream (tests: inject a failing
     * stream to exercise the disk-full paths). @p name labels the
     * stream in error messages.
     */
    TraceWriter(std::unique_ptr<std::ostream> out, std::string name);

    /** Finalizes the header (record count) on destruction. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record; fatal when the write fails (disk full). */
    void append(const MemAccess &access);

    /** Copy every remaining record of @p src. @return records written. */
    std::uint64_t appendAll(TraceSource &src);

    /**
     * Flush and finalize the header early; fatal when the header
     * rewrite or flush fails, so a bad file is never silently left
     * claiming count_ records.
     */
    void close();

    std::uint64_t recordsWritten() const { return count_; }

  private:
    void writeHeader();

    std::unique_ptr<std::ostream> out_;
    std::string name_;
    std::uint64_t count_ = 0;
    bool open_ = false;
};

/** Replays a binary trace file as a TraceSource. */
class TraceReader : public TraceSource
{
  public:
    /** Open @p path; fatal on missing file or bad header. */
    explicit TraceReader(const std::string &path);

    std::size_t nextBatch(MemAccess *out, std::size_t max) override;

    /**
     * Rewind to the first record. Re-validates the header from byte 0
     * (fatal if the file changed underneath us or a truncation left
     * it headerless) instead of merely clearing the stream's failbit.
     */
    void reset() override;

    /** Total records according to the header. */
    std::uint64_t recordCount() const { return count_; }

    /** True once a clean truncation was observed (short file). */
    bool truncated() const { return truncated_; }

  private:
    void readHeader();

    std::string path_;
    std::ifstream in_;
    std::uint64_t count_ = 0;
    std::uint64_t pos_ = 0;
    bool truncated_ = false;
};

} // namespace sbsim

#endif // STREAMSIM_TRACE_FILE_TRACE_HH
