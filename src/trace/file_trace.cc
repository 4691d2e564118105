#include "file_trace.hh"

#include <array>
#include <cstring>

#include "util/bitutil.hh"
#include "util/logging.hh"

namespace sbsim {

namespace {

constexpr char kMagic[4] = {'S', 'B', 'T', 'R'};
constexpr std::uint32_t kVersion = 2; ///< v2 added the PC field.
constexpr std::size_t kHeaderSize = 4 + 4 + 8;
constexpr std::size_t kRecordSize = 8 + 8 + 1 + 1 + 2;

void
encodeRecord(const MemAccess &a, std::array<char, kRecordSize> &buf)
{
    std::memcpy(buf.data(), &a.addr, 8);
    std::memcpy(buf.data() + 8, &a.pc, 8);
    buf[16] = static_cast<char>(a.type);
    buf[17] = static_cast<char>(a.size);
    buf[18] = 0;
    buf[19] = 0;
}

/** Decode the kRecordSize bytes at @p buf into @p a. */
bool
decodeRecord(const char *buf, MemAccess &a)
{
    std::memcpy(&a.addr, buf, 8);
    std::memcpy(&a.pc, buf + 8, 8);
    auto raw_type = static_cast<std::uint8_t>(buf[16]);
    if (raw_type > static_cast<std::uint8_t>(AccessType::PREFETCH))
        return false;
    auto raw_size = static_cast<std::uint8_t>(buf[17]);
    // A zero or non-power-of-two access size would flow straight into
    // the cache index arithmetic; nonzero padding means the bytes are
    // not ours (foreign or bit-rotted file). Both are corruption.
    if (!isPowerOf2(raw_size))
        return false;
    if (buf[18] != 0 || buf[19] != 0)
        return false;
    a.type = static_cast<AccessType>(raw_type);
    a.size = raw_size;
    return true;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : out_(std::make_unique<std::ofstream>(
          path, std::ios::binary | std::ios::trunc)),
      name_(path)
{
    if (!*out_)
        SBSIM_FATAL("cannot open trace file for writing: ", path);
    open_ = true;
    writeHeader();
}

TraceWriter::TraceWriter(std::unique_ptr<std::ostream> out,
                         std::string name)
    : out_(std::move(out)), name_(std::move(name))
{
    SBSIM_ASSERT(out_ != nullptr, "TraceWriter needs a stream");
    open_ = true;
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::writeHeader()
{
    out_->seekp(0);
    out_->write(kMagic, 4);
    std::uint32_t version = kVersion;
    out_->write(reinterpret_cast<const char *>(&version), 4);
    out_->write(reinterpret_cast<const char *>(&count_), 8);
}

void
TraceWriter::append(const MemAccess &access)
{
    SBSIM_ASSERT(open_, "append on a closed TraceWriter");
    std::array<char, kRecordSize> buf;
    encodeRecord(access, buf);
    out_->write(buf.data(), buf.size());
    // Count only what actually reached the stream: a failed write
    // (disk full, I/O error) must not inflate the header's record
    // count, or close() would finalize a header claiming records the
    // file does not hold.
    if (!*out_) {
        SBSIM_FATAL("trace write failed after ", count_, " records: ",
                    name_, " (disk full?)");
    }
    ++count_;
}

std::uint64_t
TraceWriter::appendAll(TraceSource &src)
{
    std::uint64_t n = 0;
    MemAccess a;
    while (src.next(a)) {
        append(a);
        ++n;
    }
    return n;
}

void
TraceWriter::close()
{
    if (!open_)
        return;
    writeHeader();
    out_->flush();
    // The header rewrite is the last chance to catch a short file: if
    // it (or the flush of buffered records) failed, the file is not a
    // valid trace and pretending otherwise corrupts every consumer.
    if (!*out_) {
        SBSIM_FATAL("failed to finalize trace header of ", name_,
                    " (disk full?)");
    }
    out_.reset();
    open_ = false;
}

TraceReader::TraceReader(const std::string &path)
    : path_(path), in_(path, std::ios::binary)
{
    if (!in_)
        SBSIM_FATAL("cannot open trace file for reading: ", path);
    readHeader();
}

void
TraceReader::readHeader()
{
    char magic[4];
    in_.read(magic, 4);
    if (!in_ || std::memcmp(magic, kMagic, 4) != 0)
        SBSIM_FATAL("bad trace magic in ", path_);
    std::uint32_t version = 0;
    in_.read(reinterpret_cast<char *>(&version), 4);
    if (!in_ || version != kVersion)
        SBSIM_FATAL("unsupported trace version in ", path_);
    in_.read(reinterpret_cast<char *>(&count_), 8);
    if (!in_)
        SBSIM_FATAL("truncated trace header in ", path_);
}

std::size_t
TraceReader::nextBatch(MemAccess *out, std::size_t max)
{
    // One read() per batch instead of one per record; the stream's own
    // buffer then serves the per-record decode directly.
    constexpr std::size_t kChunkRecords = 512;
    std::array<char, kChunkRecords * kRecordSize> raw;
    std::size_t n = 0;
    while (n < max && pos_ < count_) {
        std::size_t want =
            std::min({max - n, kChunkRecords,
                      static_cast<std::size_t>(count_ - pos_)});
        in_.read(raw.data(),
                 static_cast<std::streamsize>(want * kRecordSize));
        auto got_bytes = static_cast<std::size_t>(in_.gcount());
        if (got_bytes % kRecordSize != 0) {
            // A short read that does not land on a record boundary is
            // a torn record — corruption, not a clean truncation.
            SBSIM_FATAL("torn record ",
                        pos_ + got_bytes / kRecordSize, " in ", path_,
                        " (", got_bytes % kRecordSize, " of ",
                        kRecordSize, " bytes)");
        }
        std::size_t got = got_bytes / kRecordSize;
        for (std::size_t i = 0; i < got; ++i) {
            if (!decodeRecord(raw.data() + i * kRecordSize, out[n + i]))
                SBSIM_FATAL("corrupt record ", pos_ + i, " in ", path_);
        }
        pos_ += got;
        n += got;
        if (got < want) {
            SBSIM_WARN("trace file ", path_, " truncated at record ",
                       pos_, " of ", count_);
            truncated_ = true;
            pos_ = count_;
            break;
        }
    }
    return n;
}

void
TraceReader::reset()
{
    // After a truncation (or any failure) the stream's state bits are
    // set and the file may have changed; re-validate the header from
    // byte 0 rather than just clearing failbit and trusting the old
    // counters.
    in_.clear();
    in_.seekg(0);
    readHeader();
    static_assert(kHeaderSize == 4 + 4 + 8,
                  "readHeader must consume exactly the header");
    pos_ = 0;
    truncated_ = false;
}

} // namespace sbsim
