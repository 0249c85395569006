/**
 * @file
 * Tests for the persistent arena format (core/arena_io.hh): exact
 * round trips, sweep bit-identity off a mapped file at multiple
 * thread counts, strict loader rejection of truncated, corrupted or
 * version-1 files, and a writer that refuses what the loader would
 * reject.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.hh"
#include "core/arena_io.hh"
#include "core/lifetime_arena.hh"
#include "core/protection.hh"
#include "core/sweep.hh"

namespace mbavf
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "arena_io_" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(static_cast<bool>(os.flush())) << path;
}

/** 8-bit words, 4 words per container, varied shapes and gaps. */
LifetimeStore
randomStore(std::uint64_t seed, unsigned num_containers = 64)
{
    Rng rng(seed);
    LifetimeStore store(8, 4);
    for (unsigned c = 0; c < num_containers; ++c) {
        if (rng.chance(0.2))
            continue; // absent container
        ContainerLifetime &container = store.container(c);
        for (unsigned w = 0; w < 4; ++w) {
            if (rng.chance(0.4))
                continue; // empty word
            Cycle t = rng.below(50);
            const unsigned segs = 1 + rng.below(5);
            for (unsigned s = 0; s < segs; ++s) {
                Cycle e = t + 1 + rng.below(40);
                const std::uint64_t read = rng.next() & 0xFF;
                const InstrTag tag = rng.chance(0.25)
                    ? noInstrTag
                    : makeInstrTag((unsigned)rng.below(4),
                                   (unsigned)rng.below(100));
                container.words[w].append(
                    {t, e, read & (rng.next() & 0xFF), read, tag});
                t = e + 1 + rng.below(15);
            }
        }
    }
    return store;
}

/** Structural equality of two arenas, column by column. */
void
expectArenasEqual(const LifetimeArena &a, const LifetimeArena &b)
{
    ASSERT_EQ(a.wordWidth(), b.wordWidth());
    ASSERT_EQ(a.wordsPerContainer(), b.wordsPerContainer());
    ASSERT_EQ(a.numWords(), b.numWords());
    ASSERT_EQ(a.numSegments(), b.numSegments());
    ASSERT_EQ(a.numContainers(), b.numContainers());
    for (std::uint32_t w = 0; w < a.numWords(); ++w) {
        EXPECT_EQ(a.offset(w), b.offset(w));
        EXPECT_EQ(a.count(w), b.count(w));
        EXPECT_EQ(a.wordContainer(w), b.wordContainer(w));
        EXPECT_EQ(a.wordIndex(w), b.wordIndex(w));
        EXPECT_EQ(a.findWord(a.wordContainer(w), a.wordIndex(w)),
                  b.findWord(a.wordContainer(w), a.wordIndex(w)));
    }
    for (std::size_t s = 0; s < a.numSegments(); ++s) {
        EXPECT_EQ(a.begins()[s], b.begins()[s]);
        EXPECT_EQ(a.ends()[s], b.ends()[s]);
        EXPECT_EQ(a.masks()[s].ace, b.masks()[s].ace);
        EXPECT_EQ(a.masks()[s].read, b.masks()[s].read);
        EXPECT_EQ(a.tags()[s], b.tags()[s]);
    }
}

/** One container per row; container bits = 8 x 4 = 32 columns. */
class GridArray : public PhysicalArray
{
  public:
    explicit GridArray(std::uint64_t rows) : rows_(rows) {}

    std::uint64_t rows() const override { return rows_; }
    std::uint64_t cols() const override { return 32; }

    PhysBit
    at(std::uint64_t row, std::uint64_t col) const override
    {
        return {row, static_cast<unsigned>(col),
                (row * 32 + col) / 8};
    }

  private:
    std::uint64_t rows_;
};

bool
sameSweep(const ModeSweep &a, const ModeSweep &b)
{
    if (a.results.size() != b.results.size())
        return false;
    for (std::size_t m = 0; m < a.results.size(); ++m) {
        const MbAvfResult &x = a.results[m];
        const MbAvfResult &y = b.results[m];
        if (x.avf.sdc != y.avf.sdc || x.avf.trueDue != y.avf.trueDue ||
            x.avf.falseDue != y.avf.falseDue ||
            x.numGroups != y.numGroups ||
            x.windows.size() != y.windows.size()) {
            return false;
        }
        for (std::size_t w = 0; w < x.windows.size(); ++w) {
            if (x.windows[w].sdc != y.windows[w].sdc ||
                x.windows[w].trueDue != y.windows[w].trueDue ||
                x.windows[w].falseDue != y.windows[w].falseDue) {
                return false;
            }
        }
    }
    return true;
}

TEST(ArenaIo, RoundTripPreservesEveryColumn)
{
    LifetimeStore store = randomStore(7);
    LifetimeArena built(store);
    const std::string path = tempPath("roundtrip.bin");
    saveArena(built, path, 12345);

    std::string error;
    Cycle horizon = 0;
    std::optional<LifetimeArena> loaded =
        tryLoadArena(path, error, &horizon);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(horizon, 12345u);
    expectArenasEqual(built, *loaded);

    // The mapped arena answers lookups exactly like the built one,
    // including misses.
    for (std::uint64_t c = 0; c < 70; ++c) {
        for (unsigned w = 0; w < 5; ++w) {
            EXPECT_EQ(loaded->findWord(c, w), built.findWord(c, w))
                << c << ":" << w;
        }
    }
    std::remove(path.c_str());
}

TEST(ArenaIo, Version1FileIsRejected)
{
    // A pre-tag (version 1) arena: strip the trailing tag column off
    // a fresh file and rewind the header's version and size fields.
    // Only version 2 loads, so the file is rejected whole.
    LifetimeStore store = randomStore(9);
    const std::string path = tempPath("v1.bin");
    saveArena(LifetimeArena(store), path, 777);
    std::string bytes = readFile(path);
    std::remove(path.c_str());

    auto read_u64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, bytes.data() + at, sizeof(v));
        return v;
    };
    const std::uint64_t num_segments = read_u64(32);
    const std::uint64_t num_handles = read_u64(48);
    ASSERT_GT(num_segments, 0u);

    // The tag column is the last section; the file ends exactly
    // numSegments * sizeof(InstrTag) bytes after its 64-byte-aligned
    // start. Version 1 ends at the unaligned end of the handle
    // table, which sits (num_handles * 4) % 64 bytes past the last
    // 64-byte boundary at or below the tag column's start.
    const std::uint64_t tag_start =
        bytes.size() - num_segments * sizeof(InstrTag);
    ASSERT_EQ(tag_start % 64, 0u);
    const std::uint64_t overhang = num_handles * 4 % 64;
    const std::uint64_t handles_end =
        tag_start - (64 - overhang) % 64;
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 8, &v1, sizeof(v1));
    bytes.resize(handles_end);
    const std::uint64_t v1_size = bytes.size();
    std::memcpy(bytes.data() + 64, &v1_size, sizeof(v1_size));

    const std::string v1_path = tempPath("v1_cut.bin");
    writeFile(v1_path, bytes);
    std::string error;
    std::optional<LifetimeArena> loaded = tryLoadArena(v1_path, error);
    std::remove(v1_path.c_str());
    EXPECT_FALSE(loaded.has_value());
    EXPECT_EQ(error, "unsupported version 1");
}

TEST(ArenaIoDeathTest, SaveRefusesAWordOutsideItsContainer)
{
    // A malformed store: container 0 holds a non-empty word at index
    // wordsPerContainer. Its snapshot keeps the word, which the
    // loader would reject, so saving it must be fatal before any
    // file (or temporary) appears at the path.
    LifetimeStore store(8, 4);
    ContainerLifetime &container = store.container(0);
    container.words.resize(5);
    container.words[4].append({5, 10, 0x1, 0x1});
    const std::string path = tempPath("outside.bin");
    std::remove(path.c_str());
    EXPECT_EXIT(saveArena(LifetimeArena(store), path, 40),
                ::testing::ExitedWithCode(1), "outside its");
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(ArenaIo, MappedSweepIsBitIdenticalAtAnyThreadCount)
{
    LifetimeStore store = randomStore(3, 32);
    GridArray array(32);
    ParityScheme parity;
    MbAvfOptions opt;
    opt.horizon = 400;
    opt.numWindows = 4;
    opt.numThreads = 1;
    ModeSweep direct =
        sweepModesArena(array, LifetimeArena(store), parity, opt, 6);

    const std::string path = tempPath("sweep.bin");
    saveArena(LifetimeArena(store), path, opt.horizon);
    std::string error;
    std::optional<LifetimeArena> loaded = tryLoadArena(path, error);
    ASSERT_TRUE(loaded.has_value()) << error;
    std::remove(path.c_str());

    ModeSweep t1 = sweepModesArena(array, *loaded, parity, opt, 6);
    EXPECT_TRUE(sameSweep(direct, t1));
    opt.numThreads = 4;
    ModeSweep t4 = sweepModesArena(array, *loaded, parity, opt, 6);
    EXPECT_TRUE(sameSweep(direct, t4));
}

TEST(ArenaIo, EmptyStoreRoundTrips)
{
    LifetimeStore store(8, 4);
    const std::string path = tempPath("empty.bin");
    saveArena(LifetimeArena(store), path, 0);
    std::string error;
    Cycle horizon = 77;
    std::optional<LifetimeArena> loaded =
        tryLoadArena(path, error, &horizon);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(horizon, 0u);
    EXPECT_EQ(loaded->numWords(), 0u);
    EXPECT_EQ(loaded->numSegments(), 0u);
    EXPECT_EQ(loaded->findWord(0, 0), LifetimeArena::noWord);
    std::remove(path.c_str());
}

TEST(ArenaIo, EveryTruncationIsRejected)
{
    // A small store keeps the file — and the loop — small while
    // still exercising every section boundary.
    LifetimeStore store = randomStore(11, 8);
    const std::string path = tempPath("trunc_src.bin");
    saveArena(LifetimeArena(store), path, 5);
    const std::string bytes = readFile(path);
    std::remove(path.c_str());
    ASSERT_GT(bytes.size(), sizeof(std::uint64_t) * 16);

    const std::string cut = tempPath("trunc.bin");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeFile(cut, bytes.substr(0, len));
        std::string error;
        std::optional<LifetimeArena> loaded =
            tryLoadArena(cut, error);
        EXPECT_FALSE(loaded.has_value())
            << "accepted a file truncated to " << len << " of "
            << bytes.size() << " bytes";
        EXPECT_FALSE(error.empty());
    }
    std::remove(cut.c_str());
}

TEST(ArenaIo, CorruptHeaderFieldsAreRejected)
{
    LifetimeStore store = randomStore(13, 8);
    const std::string path = tempPath("corrupt_src.bin");
    saveArena(LifetimeArena(store), path, 5);
    const std::string bytes = readFile(path);
    std::remove(path.c_str());

    // (offset, patch bytes) per header field; offsets follow the
    // fixed 128-byte header layout in arena_io.cc.
    struct Patch
    {
        const char *label;
        std::size_t offset;
        std::vector<unsigned char> value;
    };
    const std::vector<Patch> patches = {
        {"magic", 0, {'X'}},
        {"version", 8, {9, 0, 0, 0}},
        // The marker reads 04 03 02 01 on disk little-endian; the
        // byte-swapped image a foreign writer would produce is the
        // reverse.
        {"byte order", 12, {1, 2, 3, 4}},
        {"word width", 16, {65, 0, 0, 0}},
        {"words per container", 20, {0xff, 0xff, 0xff, 0xff}},
        {"word count", 24, {0xfe, 0xff, 0xff, 0xff}},
        {"segment count", 32, {0xff, 0xff, 0xff, 0xff}},
        {"file size", 64, {1}},
    };
    const std::string cut = tempPath("corrupt.bin");
    for (const Patch &patch : patches) {
        std::string corrupt = bytes;
        for (std::size_t i = 0; i < patch.value.size(); ++i) {
            corrupt[patch.offset + i] =
                static_cast<char>(patch.value[i]);
        }
        writeFile(cut, corrupt);
        std::string error;
        std::optional<LifetimeArena> loaded =
            tryLoadArena(cut, error);
        EXPECT_FALSE(loaded.has_value())
            << "accepted a corrupt " << patch.label;
        EXPECT_FALSE(error.empty()) << patch.label;
    }
    std::remove(cut.c_str());
}

TEST(ArenaIo, MalformedSegmentColumnsAreRejected)
{
    // Two segments in one word; corrupting the begin column so the
    // chain runs backwards or out of order must be rejected at load
    // time: the sweep kernels subtract end - begin unchecked, so a
    // wrapped run length would otherwise report garbage AVF with no
    // diagnostic.
    LifetimeStore store(8, 1);
    WordLifetime &word = store.container(0).words[0];
    word.append({5, 10, 0x1, 0x1});
    word.append({20, 30, 0x3, 0x3});
    const std::string path = tempPath("segorder_src.bin");
    saveArena(LifetimeArena(store), path, 40);
    const std::string bytes = readFile(path);
    std::remove(path.c_str());

    // The segBegin column is the first section after the 128-byte
    // header, one 8-byte little-endian Cycle per segment.
    struct Patch
    {
        const char *label;
        std::size_t offset;
        unsigned char value;
    };
    const Patch patches[] = {
        // begin[0] high byte: begin far past end -> backwards.
        {"backwards segment", 128 + 7, 0xff},
        // begin[1] low byte: 20 -> 0, before end[0] -> unsorted.
        {"unsorted chain", 128 + 8, 0},
    };
    const std::string cut = tempPath("segorder.bin");
    for (const Patch &patch : patches) {
        std::string corrupt = bytes;
        corrupt[patch.offset] = static_cast<char>(patch.value);
        writeFile(cut, corrupt);
        std::string error;
        std::optional<LifetimeArena> loaded =
            tryLoadArena(cut, error);
        EXPECT_FALSE(loaded.has_value())
            << "accepted a " << patch.label;
        EXPECT_NE(error.find("segment"), std::string::npos)
            << patch.label << ": " << error;
    }
    std::remove(cut.c_str());
}

TEST(ArenaIo, OutOfRangeHandleIsRejected)
{
    // Smash every byte of the trailing handle section to 0x7f: each
    // handle becomes 0x7f7f7f7f, far beyond the word count but not
    // noWord, which the cross-index validation must catch.
    LifetimeStore store = randomStore(17, 8);
    const std::string path = tempPath("handle_src.bin");
    saveArena(LifetimeArena(store), path, 5);
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    // The version-2 tag column (numSegments * 4 bytes, no trailing
    // padding) ends the file; the handle table sits just before it
    // plus up to 63 alignment bytes. Smashing the 64 bytes ahead of
    // the tag column is guaranteed to hit at least one real handle.
    std::uint64_t num_segments = 0;
    std::memcpy(&num_segments, bytes.data() + 32,
                sizeof(num_segments));
    const std::size_t tag_start = bytes.size() - num_segments * 4;
    for (std::size_t i = tag_start - 64; i < tag_start; ++i)
        bytes[i] = 0x7f;

    const std::string cut = tempPath("handle.bin");
    writeFile(cut, bytes);
    std::string error;
    std::optional<LifetimeArena> loaded = tryLoadArena(cut, error);
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(error.find("handle"), std::string::npos) << error;
    std::remove(cut.c_str());
}

} // namespace
} // namespace mbavf
