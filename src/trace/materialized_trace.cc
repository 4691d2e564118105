#include "trace/materialized_trace.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace sbsim {
namespace {

/** First mapping of a drain. Below the 2 MiB of one huge page, so a
 *  short trace never takes one; longer ones double past it. */
constexpr std::size_t kInitialBytes = std::size_t{1} << 20;

std::size_t
roundUpToPage(std::size_t bytes)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

/**
 * Ask for transparent huge pages on [base, base + bytes): a trace is
 * written once, front to back, so 2 MiB faults replace 512 4 KiB
 * ones. Advice only; platforms without it keep base pages.
 */
void
adviseHugePages(void *base, std::size_t bytes)
{
#ifdef MADV_HUGEPAGE
    (void)::madvise(base, bytes, MADV_HUGEPAGE);
#else
    (void)base;
    (void)bytes;
#endif
}

void *
mapAnonymous(std::size_t bytes)
{
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    adviseHugePages(base, bytes);
    return base;
}

/** The drain's buffer: one anonymous mapping, unmapped on
 *  destruction unless released to the finished trace. */
class Mapping
{
  public:
    explicit Mapping(std::size_t bytes)
        : base_(mapAnonymous(bytes)), bytes_(bytes)
    {}

    ~Mapping()
    {
        if (base_)
            (void)::munmap(base_, bytes_);
    }

    Mapping(const Mapping &) = delete;
    Mapping &operator=(const Mapping &) = delete;

    MemAccess *records() const { return static_cast<MemAccess *>(base_); }
    std::size_t bytes() const { return bytes_; }
    std::size_t capacity() const { return bytes_ / sizeof(MemAccess); }

    /** Double the mapping, keeping its first @p used bytes. */
    void
    grow(std::size_t used)
    {
        const std::size_t bigger = bytes_ * 2;
        // ThreadSanitizer does not see mremap, so a range it vacates
        // keeps the drain's access history, and another thread's
        // mapping that reuses it reports a race. Those builds copy.
#if defined(MREMAP_MAYMOVE) && !defined(__SANITIZE_THREAD__)
        // Moves page-table entries, not data: what is already written
        // stays resident, at a new address if it cannot extend.
        (void)used;
        void *moved = ::mremap(base_, bytes_, bigger, MREMAP_MAYMOVE);
        if (moved == MAP_FAILED)
            throw std::bad_alloc();
        adviseHugePages(moved, bigger);
#else
        void *moved = mapAnonymous(bigger);
        std::memcpy(moved, base_, used);
        (void)::munmap(base_, bytes_);
#endif
        base_ = moved;
        bytes_ = bigger;
    }

    /** Unmap everything past the first @p keep bytes (a page
     *  multiple); the rest stays where it is. */
    void
    shrink(std::size_t keep)
    {
        if (keep < bytes_)
            (void)::munmap(static_cast<char *>(base_) + keep,
                           bytes_ - keep);
        if (keep == 0)
            base_ = nullptr;
        bytes_ = keep;
    }

    void *
    release()
    {
        void *base = base_;
        base_ = nullptr;
        return base;
    }

  private:
    void *base_;
    std::size_t bytes_;
};

} // namespace

std::shared_ptr<const MaterializedTrace>
MaterializedTrace::fromSource(TraceSource &src)
{
    Mapping map(roundUpToPage(kInitialBytes));
    std::size_t size = 0;
    for (;;) {
        if (size == map.capacity())
            map.grow(size * sizeof(MemAccess));
        const std::size_t got =
            src.nextBatch(map.records() + size, map.capacity() - size);
        if (got == 0)
            break;
        size += got;
    }
    map.shrink(roundUpToPage(size * sizeof(MemAccess)));

    std::shared_ptr<MaterializedTrace> trace(new MaterializedTrace());
    trace->size_ = size;
    trace->mappedBytes_ = map.bytes();
    trace->refs_ = static_cast<MemAccess *>(map.release());
    trace->samplerCounts_ = src.samplerCounts();
    return trace;
}

MaterializedTrace::~MaterializedTrace()
{
    if (refs_)
        (void)::munmap(refs_, mappedBytes_);
}

} // namespace sbsim
