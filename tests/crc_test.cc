// The frame checksum (net/frame.h): the CRC-32C check value, the hardware
// path against its software fallback, and chaining over fragments against
// one flat pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>

#include "net/frame.h"

namespace gthinker {
namespace {

TEST(Crc, KnownAnswerVectors) {
  // The classic check value: CRC-32C("123456789").
  const char* s = "123456789";
  EXPECT_EQ(net::Crc32CSoftware(s, 9), 0xE3069283u);
  EXPECT_EQ(net::Crc32C(s, 9), 0xE3069283u);
}

TEST(Crc, HardwareCrc32CMatchesSoftware) {
  if (!net::HasHardwareCrc32C()) {
    GTEST_SKIP() << "no SSE4.2 on this machine";
  }
  std::mt19937 rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len = rng() % 512;
    std::string data(len, '\0');
    for (auto& c : data) c = static_cast<char>(rng());
    EXPECT_EQ(net::Crc32C(data.data(), data.size()),
              net::Crc32CSoftware(data.data(), data.size()))
        << "len=" << len;
  }
}

TEST(Crc, ChainingOverFragmentsMatchesFlatPass) {
  std::mt19937 rng(5150);
  std::string data(4096, '\0');
  for (auto& c : data) c = static_cast<char>(rng());
  for (int trial = 0; trial < 50; ++trial) {
    // Split into random fragments and chain — the exact shape of the
    // scatter-gather send path computing a frame CRC over a Payload chain.
    uint32_t c32c = 0;
    size_t off = 0;
    while (off < data.size()) {
      const size_t chunk = std::min<size_t>(1 + rng() % 700,
                                            data.size() - off);
      c32c = net::Crc32C(data.data() + off, chunk, c32c);
      off += chunk;
    }
    EXPECT_EQ(c32c, net::Crc32C(data.data(), data.size()));
  }
}

}  // namespace
}  // namespace gthinker
