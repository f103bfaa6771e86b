#ifndef GTHINKER_APPS_KERNEL_SIMD_H_
#define GTHINKER_APPS_KERNEL_SIMD_H_

// Word-parallel and branch-minimized set primitives underneath the serial
// mining kernels (apps/kernels.h). Three intersection strategies over sorted
// duplicate-free lists:
//
//   merge:   branchless two-pointer merge — the comparison results feed the
//            index increments directly, so similarly-sized inputs run
//            without the mispredicted branch per element the naive
//            if/else-if merge pays.
//   gallop:  exponential probe + binary search of the longer list, driven
//            by the shorter one — O(ns·log nl), the right shape when one
//            side is much shorter (a frontier list against a hub's Γ).
//   bitset:  64-vertex-per-word membership tests. HitBits amortizes one
//            bitmap build over many probe lists; BitMatrix holds a full
//            n×n adjacency for the dense branch-and-bound kernels, where
//            candidate-set intersection becomes AND+popcount over rows.
//
// IntersectAdaptive is the single entry point call sites use: it picks
// gallop past a size-ratio threshold and merge otherwise; the bitset path
// is chosen structurally (HitBitsWorthwhile / KernelBitsetMaxVertices())
// because it needs a reusable build to pay off. The plain loops below are
// written so the compiler's autovectorizer handles the AND/popcount and
// membership-count bodies; no intrinsics beyond popcount/ctz are needed.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gthinker::simd {

inline int PopCount64(uint64_t x) { return __builtin_popcountll(x); }
inline int Ctz64(uint64_t x) { return __builtin_ctzll(x); }

// ---------------------------------------------------------------------------
// Sorted-list intersections.
// ---------------------------------------------------------------------------

/// Branchless two-pointer merge count.
template <typename T>
uint64_t IntersectCountMerge(const T* a, size_t na, const T* b, size_t nb) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const T av = a[i];
    const T bv = b[j];
    count += static_cast<uint64_t>(av == bv);
    i += static_cast<size_t>(av <= bv);
    j += static_cast<size_t>(bv <= av);
  }
  return count;
}

/// Galloping count; `a` must be the shorter side. Each probe exponentially
/// widens a window in `b` from the last match position, then binary-searches
/// inside it, so the cost is O(na·log(nb/na)) on skewed inputs.
template <typename T>
uint64_t IntersectCountGallop(const T* a, size_t na, const T* b, size_t nb) {
  uint64_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < na && j < nb; ++i) {
    const T x = a[i];
    size_t step = 1;
    while (j + step < nb && b[j + step] < x) step <<= 1;
    const size_t hi = std::min(j + step + 1, nb);
    j = static_cast<size_t>(std::lower_bound(b + j, b + hi, x) - b);
    if (j < nb && b[j] == x) {
      ++count;
      ++j;
    }
  }
  return count;
}

/// Length ratio beyond which galloping beats merging: merge is linear in
/// na+nb while gallop is ~na·log nb, so the crossover sits where the long
/// side dwarfs the short one.
inline constexpr size_t kGallopRatio = 16;

/// The adaptive entry point: empty-input fast path, gallop past the ratio
/// threshold, branchless merge otherwise. Argument order is irrelevant.
template <typename T>
uint64_t IntersectAdaptive(const T* a, size_t na, const T* b, size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  if (nb / na >= kGallopRatio) return IntersectCountGallop(a, na, b, nb);
  return IntersectCountMerge(a, na, b, nb);
}

template <typename T>
uint64_t IntersectAdaptive(const std::vector<T>& a, const std::vector<T>& b) {
  return IntersectAdaptive(a.data(), a.size(), b.data(), b.size());
}

/// Key projection for plain sorted lists: the element is its own key.
struct Identity {
  template <typename T>
  constexpr const T& operator()(const T& x) const {
    return x;
  }
};

/// Position-reporting merge: calls f(i, j) for every ka(a[i]) == kb(b[j]),
/// ascending. The key projections let a list of records (labeled neighbors)
/// intersect in place against a plain id list.
template <typename A, typename B, typename KA, typename KB, typename F>
void MergeForEach(const A* a, size_t na, const B* b, size_t nb, KA ka, KB kb,
                  F&& f) {
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const auto av = ka(a[i]);
    const auto bv = kb(b[j]);
    if (av == bv) f(i, j);
    i += static_cast<size_t>(av <= bv);
    j += static_cast<size_t>(bv <= av);
  }
}

/// Position-reporting gallop; `a` should be the shorter side.
template <typename A, typename B, typename KA, typename KB, typename F>
void GallopForEach(const A* a, size_t na, const B* b, size_t nb, KA ka, KB kb,
                   F&& f) {
  size_t j = 0;
  for (size_t i = 0; i < na && j < nb; ++i) {
    const auto x = ka(a[i]);
    size_t step = 1;
    while (j + step < nb && kb(b[j + step]) < x) step <<= 1;
    const size_t hi = std::min(j + step + 1, nb);
    j = static_cast<size_t>(
        std::lower_bound(b + j, b + hi, x,
                         [&kb](const B& e, const decltype(x)& v) {
                           return kb(e) < v;
                         }) -
        b);
    if (j < nb && kb(b[j]) == x) {
      f(i, j);
      ++j;
    }
  }
}

/// Adaptive position-reporting intersection: f(i, j) for every common key,
/// ascending, galloping the shorter side through the longer one past the
/// ratio threshold (in either direction) and merging otherwise.
template <typename A, typename B, typename KA, typename KB, typename F>
void IntersectAdaptiveForEach(const A* a, size_t na, const B* b, size_t nb,
                              KA ka, KB kb, F&& f) {
  if (na == 0 || nb == 0) return;
  if (nb / na >= kGallopRatio) {
    GallopForEach(a, na, b, nb, ka, kb, f);
  } else if (na / nb >= kGallopRatio) {
    GallopForEach(b, nb, a, na, kb, ka,
                  [&f](size_t j, size_t i) { f(i, j); });
  } else {
    MergeForEach(a, na, b, nb, ka, kb, f);
  }
}

/// Materializing adaptive intersection: appends the common elements to
/// `out`, ascending.
template <typename T>
void IntersectAdaptiveInto(const T* a, size_t na, const T* b, size_t nb,
                           std::vector<T>* out) {
  IntersectAdaptiveForEach(a, na, b, nb, Identity{}, Identity{},
                           [a, out](size_t i, size_t) { out->push_back(a[i]); });
}

/// True if the two sorted ranges share any element; early-exits on the first
/// common value (cheaper than a full intersection count when any hit ends
/// the question, e.g. 2-hop reachability probes).
template <typename T>
bool AnyCommonSorted(const T* a, size_t na, const T* b, size_t nb) {
  size_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// HitBits: one-sided reusable membership bitmap.
// ---------------------------------------------------------------------------

/// Bitmap over [0, max(base)] built once from a sorted base list; probing a
/// list of length m costs m O(1) word tests instead of re-merging the base.
/// Pays off when the same base is intersected against many probe lists (the
/// triangle kernels intersect Γ_>(root) against every frontier vertex).
template <typename T>
class HitBits {
 public:
  HitBits() = default;
  HitBits(const T* base, size_t n) { Build(base, n); }

  void Build(const T* base, size_t n) {
    limit_ = n > 0 ? static_cast<size_t>(base[n - 1]) + 1 : 0;
    words_.assign((limit_ + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t v = static_cast<size_t>(base[i]);
      words_[v >> 6] |= uint64_t{1} << (v & 63);
    }
  }

  bool Test(T x) const {
    const size_t v = static_cast<size_t>(x);
    return v < limit_ && ((words_[v >> 6] >> (v & 63)) & 1) != 0;
  }

  uint64_t CountHits(const T* probe, size_t n) const {
    uint64_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      count += static_cast<uint64_t>(Test(probe[i]));
    }
    return count;
  }

  uint64_t CountHits(const std::vector<T>& probe) const {
    return CountHits(probe.data(), probe.size());
  }

 private:
  size_t limit_ = 0;
  std::vector<uint64_t> words_;
};

/// Build-vs-reuse break-even for HitBits: building costs ~domain/64 word
/// clears plus one pass over the base; every probe then skips re-walking the
/// base list that a merge would pay. Requires a meaningful base and at least
/// two probes to amortize.
inline bool HitBitsWorthwhile(size_t base_len, size_t domain,
                              size_t num_probes) {
  if (base_len < 16 || num_probes < 2) return false;
  return domain / 64 + base_len < base_len * num_probes;
}

// ---------------------------------------------------------------------------
// Word-vector operations (rows of BitMatrix, P/X sets, candidate sets).
// ---------------------------------------------------------------------------

inline uint64_t WordsCount(const uint64_t* a, size_t w) {
  uint64_t count = 0;
  for (size_t i = 0; i < w; ++i) count += PopCount64(a[i]);
  return count;
}

inline uint64_t WordsAndCount(const uint64_t* a, const uint64_t* b, size_t w) {
  uint64_t count = 0;
  for (size_t i = 0; i < w; ++i) count += PopCount64(a[i] & b[i]);
  return count;
}

inline bool WordsAny(const uint64_t* a, size_t w) {
  for (size_t i = 0; i < w; ++i) {
    if (a[i] != 0) return true;
  }
  return false;
}

inline bool WordsAnyCommon(const uint64_t* a, const uint64_t* b, size_t w) {
  for (size_t i = 0; i < w; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

inline void WordsAndInto(const uint64_t* a, const uint64_t* b, size_t w,
                         uint64_t* out) {
  for (size_t i = 0; i < w; ++i) out[i] = a[i] & b[i];
}

/// out = a & ~b.
inline void WordsAndNotInto(const uint64_t* a, const uint64_t* b, size_t w,
                            uint64_t* out) {
  for (size_t i = 0; i < w; ++i) out[i] = a[i] & ~b[i];
}

/// Calls f(bit_index) for every set bit, ascending.
template <typename F>
void ForEachBit(const uint64_t* a, size_t w, F&& f) {
  for (size_t i = 0; i < w; ++i) {
    uint64_t word = a[i];
    while (word != 0) {
      f(static_cast<int>(i * 64 + Ctz64(word)));
      word &= word - 1;
    }
  }
}

// ---------------------------------------------------------------------------
// BitMatrix: dense n×n adjacency for the branch-and-bound kernels.
// ---------------------------------------------------------------------------

/// Row-major bit adjacency matrix. One row is the neighborhood of a vertex
/// as a bitset, so candidate-set refinement (P ∩ Γ(v)) is a word-wise AND
/// and |P ∩ Γ(v)| an AND+popcount — the BBMC representation.
class BitMatrix {
 public:
  BitMatrix() = default;
  explicit BitMatrix(int n) { Reset(n); }

  void Reset(int n) {
    n_ = n;
    row_words_ = static_cast<size_t>((n + 63) / 64);
    bits_.assign(static_cast<size_t>(n) * row_words_, 0);
  }

  int num_vertices() const { return n_; }
  size_t row_words() const { return row_words_; }
  bool empty() const { return n_ == 0; }

  void Set(int r, int c) {
    bits_[static_cast<size_t>(r) * row_words_ + (static_cast<size_t>(c) >> 6)] |=
        uint64_t{1} << (c & 63);
  }

  bool Test(int r, int c) const {
    return ((bits_[static_cast<size_t>(r) * row_words_ +
                   (static_cast<size_t>(c) >> 6)] >>
             (c & 63)) &
            1) != 0;
  }

  const uint64_t* Row(int r) const {
    return bits_.data() + static_cast<size_t>(r) * row_words_;
  }

 private:
  int n_ = 0;
  size_t row_words_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace gthinker::simd

#endif  // GTHINKER_APPS_KERNEL_SIMD_H_
