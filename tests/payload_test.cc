// Tests for the zero-copy wire-path building blocks: BufferPool slab
// recycling, the refcounted Payload and its PayloadView.

#include "net/payload.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/buffer_pool.h"
#include "util/serializer.h"

namespace gthinker {
namespace {

TEST(BufferPoolTest, SizeClassMapping) {
  EXPECT_EQ(BufferPool::ClassFor(1), 0);
  EXPECT_EQ(BufferPool::ClassFor(64), 0);
  EXPECT_EQ(BufferPool::ClassFor(65), 1);
  EXPECT_EQ(BufferPool::ClassFor(1 << 20), BufferPool::kNumClasses - 1);
  EXPECT_EQ(BufferPool::ClassFor((1 << 20) + 1), -1);  // oversized
}

TEST(BufferPoolTest, RecycleServesFromFreeList) {
  BufferPool pool;
  Slab* a = pool.Acquire(100);
  char* data = a->data;
  ASSERT_NE(data, nullptr);
  EXPECT_GE(a->capacity, 100u);
  a->Unref();  // last ref -> recycled into the free list
  Slab* b = pool.Acquire(100);
  EXPECT_EQ(b->data, data);  // same physical slab came back
  auto stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.allocs, 1);
  EXPECT_EQ(stats.outstanding, 1);
  b->Unref();
  EXPECT_EQ(pool.stats().outstanding, 0);
}

TEST(BufferPoolTest, OversizedSlabsAreNotPooled) {
  BufferPool pool;
  Slab* big = pool.Acquire((1 << 20) + 1);
  EXPECT_EQ(big->size_class, -1);
  big->Unref();
  Slab* again = pool.Acquire((1 << 20) + 1);
  EXPECT_EQ(pool.stats().pool_hits, 0);
  again->Unref();
}

TEST(BufferPoolTest, SlabRefCopySharesAndReleases) {
  BufferPool pool;
  SlabRef a(pool.Acquire(64));
  {
    SlabRef b = a;  // refcount 2
    EXPECT_EQ(b.data(), a.data());
    EXPECT_EQ(pool.stats().outstanding, 1);
  }
  // b released; a still pins the slab.
  EXPECT_EQ(pool.stats().outstanding, 1);
  a.Reset();
  EXPECT_EQ(pool.stats().outstanding, 0);
}

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

TEST(PayloadTest, CopyOfOwnsIndependentBytes) {
  std::string src = "abcdef";
  Payload p = Payload::CopyOf(src.data(), src.size());
  src.assign(6, 'x');  // mutate the source after the copy
  EXPECT_TRUE(p == "abcdef");
}

TEST(PayloadTest, TakePayloadIsZeroCopyAndResetsSerializer) {
  Serializer ser;
  ser.Write<uint32_t>(0xdeadbeef);
  ser.WriteString("payload");
  const size_t encoded = ser.size();
  const char* bytes = ser.data();
  Payload p = TakePayload(ser);
  EXPECT_EQ(ser.size(), 0u);  // serializer reset for reuse
  EXPECT_EQ(p.size(), encoded);
  EXPECT_EQ(p.data(), bytes);  // the very same slab bytes
}

TEST(PayloadViewTest, FlatPayloadIsZeroCopy) {
  Payload p = Payload::CopyOf("flat", 4);
  PayloadView view(p);
  EXPECT_EQ(view.data(), p.data());
  EXPECT_EQ(view.size(), 4u);
}

TEST(SerializerSlabTest, ReleaseStillYieldsOwnedString) {
  Serializer ser;
  ser.WriteString(std::string(1000, 'z'));  // force slab growth
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
