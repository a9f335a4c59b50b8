/**
 * @file
 * Hostile-snapshot suite: every malformed, truncated or mismatched
 * image must be rejected with SnapshotError before any component state
 * mutates — no UB, no partial restores, no trust in on-disk bytes.
 * CI runs this under ASan/UBSan, so an out-of-bounds read provoked by
 * a crafted length field fails the build even if the clean-rejection
 * assertion would have passed.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/json_stats.hh"
#include "sim/system.hh"
#include "snapshot/snapshot.hh"
#include "workload/spec_profiles.hh"

namespace mtrap
{
namespace
{

constexpr std::uint64_t kCtx = 11;
/** magic 4 + endian 4 + version 4 + cfg fp 8 + ctx fp 8. */
constexpr std::size_t kHeaderBytes = 28;

SystemConfig
testConfig()
{
    return SystemConfig::forScheme(Scheme::MuonTrap, 1);
}

/** Shared workload: loadWorkload keeps pointers into it, so it must
 *  outlive every System in the suite. */
const Workload &
testWorkload()
{
    static const Workload w = buildSpecWorkload("gcc");
    return w;
}

/** A small but fully-populated image (caches, filters, window state). */
std::vector<std::uint8_t>
makeImage()
{
    System sys(testConfig());
    sys.loadWorkload(testWorkload());
    sys.run(1'500);
    return sys.saveSnapshot(kCtx);
}

/** Fresh restore target with the workload replayed, as restore
 *  requires. */
std::unique_ptr<System>
makeTarget()
{
    auto sys = std::make_unique<System>(testConfig());
    sys->loadWorkload(testWorkload());
    return sys;
}

/** Patch `n` little-endian bytes at `off` and re-seal the CRC so the
 *  mutation exercises the *semantic* check, not just the checksum. */
void
patchAndReseal(std::vector<std::uint8_t> &img, std::size_t off,
               std::uint64_t value, std::size_t n)
{
    ASSERT_LE(off + n, img.size());
    for (std::size_t i = 0; i < n; ++i)
        img[off + i] = static_cast<std::uint8_t>(value >> (8 * i));
    // Trailer = u32 kTagEnd | u64 4 | u32 CRC over all preceding bytes.
    const std::size_t crc_off = img.size() - 4;
    const std::uint32_t crc = crc32(img.data(), img.size() - 16);
    for (std::size_t i = 0; i < 4; ++i)
        img[crc_off + i] = static_cast<std::uint8_t>(crc >> (8 * i));
}

void
expectRejected(const std::vector<std::uint8_t> &img,
               const std::string &what)
{
    auto target = makeTarget();
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(target->restoreSnapshot(std::move(copy), kCtx),
                 SnapshotError)
        << what;
}

TEST(SnapshotHostile, TruncatedImagesRejected)
{
    const std::vector<std::uint8_t> img = makeImage();
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{27},
          kHeaderBytes, img.size() / 2, img.size() - 1}) {
        std::vector<std::uint8_t> cut(img.begin(),
                                      img.begin()
                                          + static_cast<long>(keep));
        expectRejected(cut, "truncated to " + std::to_string(keep));
    }
}

TEST(SnapshotHostile, FlippedMagicRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    img[0] ^= 0xff;
    expectRejected(img, "flipped magic");
}

TEST(SnapshotHostile, WrongEndianTagRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, 4, 0x04030201u, 4);
    expectRejected(img, "byte-swapped endian tag");
}

TEST(SnapshotHostile, WrongFormatVersionRejected)
{
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, 8, kSnapshotFormatVersion + 1, 4);
    expectRejected(img, "future format version");
}

TEST(SnapshotHostile, WrongConfigFingerprintRejected)
{
    // Genuine mismatch: image saved under MuonTrap, restored into a
    // Baseline machine (valid CRC, valid framing — wrong machine).
    const std::vector<std::uint8_t> img = makeImage();
    auto other = std::make_unique<System>(
        SystemConfig::forScheme(Scheme::Baseline, 1));
    other->loadWorkload(testWorkload());
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(other->restoreSnapshot(std::move(copy), kCtx),
                 SnapshotError);

    // And a forged header fingerprint is caught too.
    std::vector<std::uint8_t> forged = img;
    patchAndReseal(forged, 12, 0xdeadbeefcafef00dull, 8);
    expectRejected(forged, "forged config fingerprint");
}

TEST(SnapshotHostile, WrongContextFingerprintRejected)
{
    const std::vector<std::uint8_t> img = makeImage();
    auto target = makeTarget();
    std::vector<std::uint8_t> copy = img;
    EXPECT_THROW(target->restoreSnapshot(std::move(copy), kCtx + 1),
                 SnapshotError);
}

TEST(SnapshotHostile, CorruptBodyFailsCrc)
{
    std::vector<std::uint8_t> img = makeImage();
    img[img.size() / 2] ^= 0x40; // body bit-flip, CRC left stale
    expectRejected(img, "body bit-flip");
}

TEST(SnapshotHostile, OversizedSectionLengthRejected)
{
    // First section header sits right after the file header:
    // u32 tag at 28, u64 length at 32. Claim a payload far beyond the
    // file, CRC re-sealed so only the section-table bound check can
    // catch it.
    std::vector<std::uint8_t> img = makeImage();
    patchAndReseal(img, kHeaderBytes + 4, 0x7fff'ffff'ffff'ffffull, 8);
    expectRejected(img, "oversized section length");

    // Same with a length that overflows pos + len arithmetic.
    std::vector<std::uint8_t> wrap = makeImage();
    patchAndReseal(wrap, kHeaderBytes + 4, 0xffff'ffff'ffff'fff0ull, 8);
    expectRejected(wrap, "wrapping section length");
}

TEST(SnapshotHostile, OversizedElementCountRejected)
{
    // A structurally-valid image whose payload claims a vector of 2^60
    // elements: the framing all checks out, so this exercises the
    // per-read checkCount bound inside component restores.
    Serializer s;
    s.beginSection(kTagMemSystem);
    s.u64(1ull << 60);
    s.endSection();
    const std::vector<std::uint8_t> img = frameSnapshot(s, 1, 2);

    Deserializer d(img, 1, 2);
    d.beginSection(kTagMemSystem);
    std::vector<std::uint64_t> sink;
    EXPECT_THROW(d.vec(sink), SnapshotError);
}

TEST(SnapshotHostile, OversizedWordStoreCountRejected)
{
    // The MemSystem section opens with main memory's word count, and
    // restore sizes the word store from it: a resealed count of 2^60
    // must be refused by checkCount before any table is allocated
    // (SnapshotError, not bad_alloc or length_error).
    std::vector<std::uint8_t> img = makeImage();
    std::uint32_t tag = 0;
    std::uint64_t words = 0;
    std::memcpy(&tag, img.data() + kHeaderBytes, 4);
    std::memcpy(&words, img.data() + kHeaderBytes + 12, 8);
    ASSERT_EQ(tag, kTagMemSystem);
    ASSERT_GT(words, 0u); // gcc's pointer-chase ring
    patchAndReseal(img, kHeaderBytes + 12, 1ull << 60, 8);
    expectRejected(img, "oversized word-store count");
}

TEST(SnapshotHostile, ImplausibleOccupancyRejected)
{
    // Valid framing, correct fingerprints, resealed CRC — but a
    // length prefix deep inside the first core section (the arch
    // context's call-stack count) claims 2^62 entries. The restore
    // must throw via checkCount, never attempt the resize.
    std::vector<std::uint8_t> img = makeImage();

    auto rd32 = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, img.data() + at, 4);
        return v;
    };
    auto rd64 = [&](std::size_t at) {
        std::uint64_t v = 0;
        std::memcpy(&v, img.data() + at, 8);
        return v;
    };
    std::size_t pos = kHeaderBytes;
    ASSERT_EQ(rd32(pos), kTagMemSystem);
    pos += 12 + rd64(pos + 4); // skip to the first core section
    ASSERT_EQ(rd32(pos), kTagCore);

    // Core payload layout opens with the arch context: u32 asid,
    // u64 pc, kNumRegs u64 registers, then the call-stack's u64
    // length prefix — the field we inflate.
    const std::size_t stack_len_off =
        pos + 12 + 4 + 8 + std::size_t{kNumRegs} * 8;
    patchAndReseal(img, stack_len_off, 1ull << 62, 8);
    expectRejected(img, "implausible call-stack length");

    // A pristine image still restores into a fresh target (nothing
    // above depended on mutating shared state).
    auto clean = makeTarget();
    std::vector<std::uint8_t> ok = makeImage();
    EXPECT_NO_THROW(clean->restoreSnapshot(std::move(ok), kCtx));
}

} // namespace
} // namespace mtrap
