// Tests for the zero-copy wire-path building blocks: the shared-string
// Payload and the Serializer handoff into it.

#include "net/payload.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/serializer.h"

namespace gthinker {
namespace {

TEST(PayloadTest, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_EQ(p.ToString(), "");
}

TEST(PayloadTest, AdoptsStringWithoutCopyOnPayloadCopy) {
  Payload p(std::string("hello world"));
  EXPECT_EQ(p.size(), 11u);
  EXPECT_TRUE(p == "hello world");
  Payload q = p;  // handle copy
  EXPECT_EQ(q.data(), p.data());  // same bytes
}

TEST(PayloadTest, TakePayloadIsZeroCopyAndResetsSerializer) {
  Serializer ser;
  ser.Write<uint32_t>(0xdeadbeef);
  ser.WriteString("payload");
  const size_t encoded = ser.size();
  const char* bytes = ser.data();
  Payload p(ser.Release());
  EXPECT_EQ(ser.size(), 0u);  // serializer reset for reuse
  EXPECT_EQ(p.size(), encoded);
  EXPECT_EQ(p.data(), bytes);  // the very same bytes, moved not copied
}

TEST(SerializerSlabTest, ReleaseStillYieldsOwnedString) {
  Serializer ser;
  ser.WriteString(std::string(1000, 'z'));  // force buffer growth
  std::string bytes = ser.Release();
  EXPECT_EQ(ser.size(), 0u);
  Deserializer des(bytes);
  std::string got;
  ASSERT_TRUE(des.ReadString(&got).ok());
  EXPECT_EQ(got, std::string(1000, 'z'));
}

TEST(SerializerSlabTest, DeserializerFromSerializerSeesBinaryBytes) {
  Serializer ser;
  ser.Write<uint32_t>(0);  // embedded NULs must survive
  ser.Write<uint32_t>(7);
  Deserializer des(ser);
  uint32_t a = 1, b = 0;
  ASSERT_TRUE(des.Read(&a).ok());
  ASSERT_TRUE(des.Read(&b).ok());
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 7u);
  EXPECT_TRUE(des.AtEnd());
}

}  // namespace
}  // namespace gthinker
