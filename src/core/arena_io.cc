#include "core/arena_io.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/bits.hh"
#include "common/logging.hh"

namespace mbavf
{

namespace
{

constexpr char arenaMagic[8] = {'M', 'B', 'A', 'V', 'F', 'A',
                                'R', '1'};
/**
 * Version 2 appended the per-segment InstrTag attribution column
 * after the handle table. Version-1 files, which lack it, are
 * rejected like any other unknown version.
 */
constexpr std::uint32_t arenaVersion = 2;
constexpr std::uint32_t nativeByteOrder = 0x01020304u;

/** Same untrusted-input cap as the lifetime store format. */
constexpr std::uint32_t maxWordsPerContainer = 1u << 20;

/**
 * On-disk header, 128 bytes, little-endian, all members naturally
 * aligned (no implicit padding). The trailing reserve keeps the
 * first section 64-byte aligned and leaves room for future fields
 * without a version bump.
 */
struct FileHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t byteOrder;
    std::uint32_t wordWidth;
    std::uint32_t wordsPerContainer;
    std::uint64_t numWords;
    std::uint64_t numSegments;
    std::uint64_t numContainers;
    std::uint64_t numHandles;
    std::uint64_t horizon;
    std::uint64_t fileSize;
    char reserved[56];
};
static_assert(sizeof(FileHeader) == 128,
              "arena header must stay exactly 128 bytes");

/**
 * Byte offset of every section. Sections follow the header in fixed
 * order, each aligned up to 64 bytes so the mapped columns start
 * cache-line aligned. Computed with saturating arithmetic: a
 * corrupt header whose counts overflow saturates `total` to
 * UINT64_MAX, which can never match a real file size.
 */
struct Layout
{
    std::uint64_t segBegin, segEnd, segMasks;
    std::uint64_t wordOffset, wordCount, wordContainer, wordIndex;
    std::uint64_t containerIds, containerBase;
    std::uint64_t handles;
    std::uint64_t segTag;
    std::uint64_t total;
};

Layout
computeLayout(const FileHeader &h)
{
    auto align64 = [](std::uint64_t x) {
        return satAdd(x, 63) & ~std::uint64_t(63);
    };
    std::uint64_t off = sizeof(FileHeader);
    auto section = [&](std::uint64_t count, std::uint64_t elem) {
        off = align64(off);
        const std::uint64_t at = off;
        off = satAdd(off, satMul(count, elem));
        return at;
    };
    Layout l;
    l.segBegin = section(h.numSegments, sizeof(Cycle));
    l.segEnd = section(h.numSegments, sizeof(Cycle));
    l.segMasks = section(h.numSegments, sizeof(SegMasks));
    l.wordOffset = section(h.numWords, sizeof(std::uint32_t));
    l.wordCount = section(h.numWords, sizeof(std::uint32_t));
    l.wordContainer = section(h.numWords, sizeof(std::uint64_t));
    l.wordIndex = section(h.numWords, sizeof(std::uint32_t));
    l.containerIds = section(h.numContainers, sizeof(std::uint64_t));
    l.containerBase = section(h.numContainers, sizeof(std::uint32_t));
    l.handles = section(h.numHandles, sizeof(std::uint32_t));
    l.segTag = section(h.numSegments, sizeof(InstrTag));
    l.total = off;
    return l;
}

/** Position-tracking raw writes with zero-fill up to an offset. */
struct FileSink
{
    std::ofstream os;
    std::uint64_t pos = 0;

    void
    raw(const void *p, std::uint64_t n)
    {
        if (n == 0)
            return; // empty sections pass a null pointer
        os.write(static_cast<const char *>(p),
                 static_cast<std::streamsize>(n));
        pos += n;
    }

    void
    padTo(std::uint64_t to)
    {
        static const char zeros[64] = {};
        while (pos < to)
            raw(zeros, std::min<std::uint64_t>(sizeof(zeros),
                                               to - pos));
    }
};

/** Sorted (container id, handle base) pairs of an arena. */
std::vector<std::pair<std::uint64_t, std::uint32_t>>
sortedContainers(
    const std::unordered_map<std::uint64_t, std::uint32_t> &bases)
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(
        bases.begin(), bases.end());
    std::sort(sorted.begin(), sorted.end());
    return sorted;
}

} // namespace

/**
 * Befriended by LifetimeArena: assembles arenas around mapped file
 * images and reads the private columns back out for saving.
 */
class ArenaIo
{
  public:
    static void
    save(const LifetimeArena &a, const std::string &path,
         Cycle horizon)
    {
        if (a.numSegments_ >= 0xffffffffull)
            fatal("arena file: segment count overflows the format");
        for (std::uint32_t w = 0; w < a.numWords_; ++w) {
            if (a.wordIndex_[w] >= a.wordsPerContainer_)
                fatal("arena file: word ", w, " at index ",
                      a.wordIndex_[w], " lies outside its ",
                      a.wordsPerContainer_, "-word container");
        }
        FileHeader h{};
        std::memcpy(h.magic, arenaMagic, sizeof(h.magic));
        h.version = arenaVersion;
        h.byteOrder = nativeByteOrder;
        h.wordWidth = a.wordWidth_;
        h.wordsPerContainer = a.wordsPerContainer_;
        h.numWords = a.numWords_;
        h.numSegments = a.numSegments_;
        h.numContainers = a.containerBase_.size();
        h.numHandles = a.numHandles_;
        h.horizon = horizon;
        const Layout l = computeLayout(h);
        h.fileSize = l.total;

        const auto containers = sortedContainers(a.containerBase_);
        std::vector<std::uint64_t> ids(containers.size());
        std::vector<std::uint32_t> bases(containers.size());
        for (std::size_t i = 0; i < containers.size(); ++i) {
            ids[i] = containers[i].first;
            bases[i] = containers[i].second;
        }

        const std::string tmp = path + ".tmp";
        FileSink sink;
        sink.os.open(tmp, std::ios::binary | std::ios::trunc);
        if (!sink.os)
            fatal("cannot open '", tmp, "' for writing");
        sink.raw(&h, sizeof(h));
        auto section = [&](std::uint64_t at, const void *p,
                           std::uint64_t count,
                           std::uint64_t elem) {
            sink.padTo(at);
            sink.raw(p, count * elem);
        };
        section(l.segBegin, a.segBegin_, h.numSegments,
                sizeof(Cycle));
        section(l.segEnd, a.segEnd_, h.numSegments, sizeof(Cycle));
        section(l.segMasks, a.segMasks_, h.numSegments,
                sizeof(SegMasks));
        section(l.wordOffset, a.wordOffset_, h.numWords,
                sizeof(std::uint32_t));
        section(l.wordCount, a.wordCount_, h.numWords,
                sizeof(std::uint32_t));
        section(l.wordContainer, a.wordContainer_, h.numWords,
                sizeof(std::uint64_t));
        section(l.wordIndex, a.wordIndex_, h.numWords,
                sizeof(std::uint32_t));
        section(l.containerIds, ids.data(), h.numContainers,
                sizeof(std::uint64_t));
        section(l.containerBase, bases.data(), h.numContainers,
                sizeof(std::uint32_t));
        section(l.handles, a.handles_, h.numHandles,
                sizeof(std::uint32_t));
        section(l.segTag, a.segTag_, h.numSegments, sizeof(InstrTag));
        sink.os.flush();
        if (!sink.os || sink.pos != l.total)
            fatal("arena file: write to '", tmp, "' failed");
        sink.os.close();
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            fatal("arena file: cannot rename '", tmp, "' to '", path,
                  "'");
        }
    }

    static std::optional<LifetimeArena>
    tryLoad(const std::string &path, std::string &error,
            Cycle *horizon)
    {
        // Map (or, failing that, read) the whole file.
        std::shared_ptr<const void> backing;
        std::uint64_t size = 0;
        {
            const int fd = ::open(path.c_str(), O_RDONLY);
            if (fd < 0) {
                error = "cannot open '" + path + "'";
                return std::nullopt;
            }
            struct stat st{};
            if (::fstat(fd, &st) != 0 || st.st_size < 0) {
                ::close(fd);
                error = "cannot stat '" + path + "'";
                return std::nullopt;
            }
            size = static_cast<std::uint64_t>(st.st_size);
            if (size < sizeof(FileHeader)) {
                ::close(fd);
                error = "file smaller than the arena header";
                return std::nullopt;
            }
            void *map = ::mmap(nullptr, size, PROT_READ,
                               MAP_PRIVATE, fd, 0);
            if (map != MAP_FAILED) {
                backing = std::shared_ptr<const void>(
                    map, [size](const void *p) {
                        ::munmap(const_cast<void *>(p), size);
                    });
                ::close(fd);
            } else {
                // Filesystems without mmap: plain read fallback.
                void *buf = std::malloc(size);
                if (!buf) {
                    ::close(fd);
                    error = "out of memory reading '" + path + "'";
                    return std::nullopt;
                }
                std::uint64_t got = 0;
                while (got < size) {
                    const ssize_t n = ::read(
                        fd, static_cast<char *>(buf) + got,
                        size - got);
                    if (n <= 0)
                        break;
                    got += static_cast<std::uint64_t>(n);
                }
                ::close(fd);
                if (got != size) {
                    std::free(buf);
                    error = "short read from '" + path + "'";
                    return std::nullopt;
                }
                backing = std::shared_ptr<const void>(
                    buf, [](const void *p) {
                        std::free(const_cast<void *>(p));
                    });
            }
        }
        const char *base = static_cast<const char *>(backing.get());

        FileHeader h{};
        std::memcpy(&h, base, sizeof(h));
        if (std::memcmp(h.magic, arenaMagic, sizeof(h.magic)) != 0) {
            error = "bad magic";
            return std::nullopt;
        }
        if (h.version != arenaVersion) {
            error = "unsupported version " +
                    std::to_string(h.version);
            return std::nullopt;
        }
        if (h.byteOrder != nativeByteOrder) {
            error = "foreign byte order";
            return std::nullopt;
        }
        const bool empty = h.numWords == 0 && h.numSegments == 0 &&
                           h.numContainers == 0 && h.numHandles == 0;
        if (h.wordWidth > 64 || (h.wordWidth == 0 && !empty)) {
            error = "word width " + std::to_string(h.wordWidth) +
                    " outside [1, 64]";
            return std::nullopt;
        }
        if (h.wordsPerContainer > maxWordsPerContainer ||
            (h.wordsPerContainer == 0 && h.numContainers != 0)) {
            error = "implausible words-per-container " +
                    std::to_string(h.wordsPerContainer);
            return std::nullopt;
        }
        if (h.numWords >= LifetimeArena::noWord) {
            error = "word count overflows the handle space";
            return std::nullopt;
        }
        if (h.numSegments >= 0xffffffffull) {
            error = "segment count overflows the offset space";
            return std::nullopt;
        }
        if (h.numHandles > 0xffffffffull) {
            error = "handle count overflows the base space";
            return std::nullopt;
        }
        if (h.numContainers == 0 && h.numHandles != 0) {
            error = "handles without containers";
            return std::nullopt;
        }
        const Layout l = computeLayout(h);
        if (l.total != h.fileSize || l.total != size) {
            error = "section layout disagrees with the file size";
            return std::nullopt;
        }

        const auto *word_offset =
            reinterpret_cast<const std::uint32_t *>(base +
                                                    l.wordOffset);
        const auto *word_count =
            reinterpret_cast<const std::uint32_t *>(base +
                                                    l.wordCount);
        const auto *ids = reinterpret_cast<const std::uint64_t *>(
            base + l.containerIds);
        const auto *bases = reinterpret_cast<const std::uint32_t *>(
            base + l.containerBase);
        const auto *handles = reinterpret_cast<const std::uint32_t *>(
            base + l.handles);

        // Cross-array indices: every word's segment range inside the
        // segment columns, every handle a real word or noWord, and
        // container blocks ordered, disjoint, and at least a full
        // container wide. Segment chains must also be non-empty and
        // sorted per word — the sweep kernels subtract end - begin
        // unchecked, so a backwards or overlapping chain would sweep
        // memory-safely but deposit wrapped run lengths and report
        // garbage AVF with no diagnostic.
        const auto *seg_begin =
            reinterpret_cast<const Cycle *>(base + l.segBegin);
        const auto *seg_end =
            reinterpret_cast<const Cycle *>(base + l.segEnd);
        const auto *word_index =
            reinterpret_cast<const std::uint32_t *>(base +
                                                    l.wordIndex);
        for (std::uint64_t w = 0; w < h.numWords; ++w) {
            if (word_offset[w] > h.numSegments ||
                word_count[w] >
                    h.numSegments - word_offset[w]) {
                error = "word " + std::to_string(w) +
                        " points outside the segment columns";
                return std::nullopt;
            }
            if (word_index[w] >= h.wordsPerContainer) {
                error = "word " + std::to_string(w) +
                        " claims index " +
                        std::to_string(word_index[w]) +
                        " outside its container";
                return std::nullopt;
            }
            const std::uint64_t lo = word_offset[w];
            const std::uint64_t hi = lo + word_count[w];
            for (std::uint64_t s = lo; s < hi; ++s) {
                if (seg_end[s] <= seg_begin[s] ||
                    (s > lo && seg_begin[s] < seg_end[s - 1])) {
                    error = "word " + std::to_string(w) +
                            " segment " + std::to_string(s - lo) +
                            " empty, backwards, or unsorted";
                    return std::nullopt;
                }
            }
        }
        for (std::uint64_t c = 0; c < h.numContainers; ++c) {
            if (c > 0 && ids[c] <= ids[c - 1]) {
                error = "container ids not strictly ascending";
                return std::nullopt;
            }
            const std::uint64_t begin = bases[c];
            const std::uint64_t end = c + 1 < h.numContainers
                                          ? bases[c + 1]
                                          : h.numHandles;
            if ((c == 0 && begin != 0) || end < begin ||
                end > h.numHandles ||
                end - begin < h.wordsPerContainer) {
                error = "container handle blocks malformed";
                return std::nullopt;
            }
        }
        for (std::uint64_t i = 0; i < h.numHandles; ++i) {
            if (handles[i] != LifetimeArena::noWord &&
                handles[i] >= h.numWords) {
                error = "handle " + std::to_string(i) +
                        " points outside the word tables";
                return std::nullopt;
            }
        }

        LifetimeArena a;
        a.wordWidth_ = h.wordWidth;
        a.wordsPerContainer_ = h.wordsPerContainer;
        a.numWords_ = static_cast<std::uint32_t>(h.numWords);
        a.numSegments_ = h.numSegments;
        a.numHandles_ = h.numHandles;
        a.segBegin_ =
            reinterpret_cast<const Cycle *>(base + l.segBegin);
        a.segEnd_ = reinterpret_cast<const Cycle *>(base + l.segEnd);
        a.segMasks_ =
            reinterpret_cast<const SegMasks *>(base + l.segMasks);
        a.segTag_ = reinterpret_cast<const InstrTag *>(base + l.segTag);
        a.wordOffset_ = word_offset;
        a.wordCount_ = word_count;
        a.wordContainer_ = reinterpret_cast<const std::uint64_t *>(
            base + l.wordContainer);
        a.wordIndex_ = reinterpret_cast<const std::uint32_t *>(
            base + l.wordIndex);
        a.handles_ = handles;
        a.containerBase_.reserve(h.numContainers);
        for (std::uint64_t c = 0; c < h.numContainers; ++c)
            a.containerBase_.emplace(ids[c], bases[c]);
        a.backing_ = std::move(backing);
        if (horizon)
            *horizon = h.horizon;
        return a;
    }
};

void
saveArena(const LifetimeArena &arena, const std::string &path,
          Cycle horizon)
{
    ArenaIo::save(arena, path, horizon);
}

std::optional<LifetimeArena>
tryLoadArena(const std::string &path, std::string &error,
             Cycle *horizon)
{
    return ArenaIo::tryLoad(path, error, horizon);
}

void
streamArenaFromStore(const LifetimeStore &store,
                     const std::string &path, Cycle horizon)
{
    saveArena(LifetimeArena(store), path, horizon);
}

} // namespace mbavf
