#include "common/bitstring.h"

#include <bit>
#include <cmath>

#include "common/error.h"
#include "common/simd/simd.h"

namespace nb {

namespace {

constexpr std::size_t bits_per_word = 64;

std::size_t word_count_for(std::size_t bits) noexcept {
    return (bits + bits_per_word - 1) / bits_per_word;
}

}  // namespace

Bitstring::Bitstring(std::size_t size) : words_(word_count_for(size), 0), size_(size) {}

Bitstring Bitstring::from_string(const std::string& bits) {
    Bitstring result(bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
        const char c = bits[i];
        require(c == '0' || c == '1', "Bitstring::from_string: characters must be 0 or 1");
        if (c == '1') {
            result.set(i);
        }
    }
    return result;
}

Bitstring Bitstring::random(Rng& rng, std::size_t size) {
    Bitstring result;
    random_into(rng, size, result);
    return result;
}

void Bitstring::random_into(Rng& rng, std::size_t size, Bitstring& out) {
    out.size_ = size;
    out.words_.resize(word_count_for(size));
    for (auto& word : out.words_) {
        word = rng.next_u64();
    }
    out.clear_padding();
}

void Bitstring::assign_words(std::span<const std::uint64_t> words, std::size_t bits) {
    const std::size_t count = word_count_for(bits);
    require(words.size() >= count, "Bitstring::assign_words: not enough source words");
    size_ = bits;
    words_.assign(words.begin(), words.begin() + static_cast<std::ptrdiff_t>(count));
    clear_padding();
}

Bitstring Bitstring::random_with_weight(Rng& rng, std::size_t size, std::size_t weight) {
    Bitstring result;
    random_with_weight_into(rng, size, weight, result);
    return result;
}

void Bitstring::random_with_weight_into(Rng& rng, std::size_t size, std::size_t weight,
                                        Bitstring& out) {
    require(weight <= size, "Bitstring::random_with_weight: weight must be <= size");
    out.reset(size);
    rng.distinct_bits(size, weight, out.words_);
}

bool Bitstring::test(std::size_t index) const {
    require(index < size_, "Bitstring::test: index out of range");
    return (words_[index / bits_per_word] >> (index % bits_per_word)) & 1u;
}

void Bitstring::set(std::size_t index, bool value) {
    require(index < size_, "Bitstring::set: index out of range");
    const std::uint64_t mask = std::uint64_t{1} << (index % bits_per_word);
    if (value) {
        words_[index / bits_per_word] |= mask;
    } else {
        words_[index / bits_per_word] &= ~mask;
    }
}

void Bitstring::flip(std::size_t index) {
    require(index < size_, "Bitstring::flip: index out of range");
    words_[index / bits_per_word] ^= std::uint64_t{1} << (index % bits_per_word);
}

std::size_t Bitstring::count() const noexcept {
    std::size_t total = 0;
    for (const auto word : words_) {
        total += static_cast<std::size_t>(std::popcount(word));
    }
    return total;
}

std::size_t Bitstring::intersect_count(const Bitstring& other) const {
    check_same_size(other, "intersect_count");
    std::size_t total = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
        total += static_cast<std::size_t>(std::popcount(words_[w] & other.words_[w]));
    }
    return total;
}

std::size_t Bitstring::and_not_count(const Bitstring& other) const {
    check_same_size(other, "and_not_count");
    return simd::ops().and_not_count(words_.data(), other.words_.data(), words_.size());
}

bool Bitstring::and_not_count_below(const Bitstring& other, std::size_t limit) const {
    check_same_size(other, "and_not_count_below");
    return simd::ops().and_not_count_below(words_.data(), other.words_.data(),
                                           words_.size(), limit);
}

std::size_t Bitstring::hamming_distance(const Bitstring& other) const {
    check_same_size(other, "hamming_distance");
    return simd::ops().hamming(words_.data(), other.words_.data(), words_.size());
}

Bitstring& Bitstring::operator|=(const Bitstring& other) {
    check_same_size(other, "operator|=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] |= other.words_[w];
    }
    return *this;
}

Bitstring& Bitstring::operator&=(const Bitstring& other) {
    check_same_size(other, "operator&=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] &= other.words_[w];
    }
    return *this;
}

Bitstring& Bitstring::operator^=(const Bitstring& other) {
    check_same_size(other, "operator^=");
    for (std::size_t w = 0; w < words_.size(); ++w) {
        words_[w] ^= other.words_[w];
    }
    return *this;
}

Bitstring Bitstring::operator~() const {
    Bitstring result = *this;
    for (auto& word : result.words_) {
        word = ~word;
    }
    result.clear_padding();
    return result;
}

bool Bitstring::operator==(const Bitstring& other) const noexcept {
    return size_ == other.size_ && words_ == other.words_;
}

std::vector<std::size_t> Bitstring::one_positions() const {
    std::vector<std::size_t> positions;
    positions.reserve(count());
    for_each_one([&positions](std::size_t index) { positions.push_back(index); });
    return positions;
}

void Bitstring::reset(std::size_t size) {
    size_ = size;
    words_.assign(word_count_for(size), 0);
}

std::uint64_t Bitstring::load_bits(std::size_t pos, std::size_t width) const {
    require(width <= 64, "Bitstring::load_bits: width must be <= 64");
    require(pos + width <= size_, "Bitstring::load_bits: range out of bounds");
    if (width == 0) {
        return 0;
    }
    const std::size_t word = pos / bits_per_word;
    const std::size_t offset = pos % bits_per_word;
    std::uint64_t value = words_[word] >> offset;
    if (offset + width > bits_per_word) {
        value |= words_[word + 1] << (bits_per_word - offset);
    }
    if (width < 64) {
        value &= (std::uint64_t{1} << width) - 1;
    }
    return value;
}

void Bitstring::store_bits(std::size_t pos, std::uint64_t value, std::size_t width) {
    require(width <= 64, "Bitstring::store_bits: width must be <= 64");
    require(width == 64 || value < (std::uint64_t{1} << width),
            "Bitstring::store_bits: value does not fit in width");
    require(pos + width <= size_, "Bitstring::store_bits: range out of bounds");
    if (width == 0) {
        return;
    }
    const std::size_t word = pos / bits_per_word;
    const std::size_t offset = pos % bits_per_word;
    const std::uint64_t mask =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    words_[word] = (words_[word] & ~(mask << offset)) | (value << offset);
    if (offset + width > bits_per_word) {
        const std::size_t spill = bits_per_word - offset;
        words_[word + 1] = (words_[word + 1] & ~(mask >> spill)) | (value >> spill);
    }
}

void Bitstring::tail_into(std::size_t from, Bitstring& out) const {
    require(from <= size_, "Bitstring::tail: start out of range");
    out.size_ = size_ - from;
    out.words_.resize(word_count_for(out.size_));
    const std::size_t word = from / bits_per_word;
    const std::size_t offset = from % bits_per_word;
    for (std::size_t w = 0; w < out.words_.size(); ++w) {
        std::uint64_t value = words_[word + w] >> offset;
        if (offset != 0 && word + w + 1 < words_.size()) {
            value |= words_[word + w + 1] << (bits_per_word - offset);
        }
        out.words_[w] = value;
    }
    out.clear_padding();
}

Bitstring Bitstring::gather(const std::vector<std::size_t>& positions) const {
    Bitstring result;
    gather_into(positions, result);
    return result;
}

void Bitstring::gather_into(std::span<const std::size_t> positions, Bitstring& out) const {
    out.reset(positions.size());
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const std::size_t p = positions[i];
        require(p < size_, "Bitstring::gather: position out of range");
        acc |= ((words_[p / bits_per_word] >> (p % bits_per_word)) & 1u)
               << (i % bits_per_word);
        if (i % bits_per_word == bits_per_word - 1) {
            out.words_[i / bits_per_word] = acc;
            acc = 0;
        }
    }
    if (positions.size() % bits_per_word != 0) {
        out.words_.back() = acc;
    }
}

void Bitstring::gather_mask_into(const Bitstring& mask, Bitstring& out,
                                 simd::Kernel kernel) const {
    check_same_size(mask, "gather_mask_into");
    out.reset(mask.count());
    if (out.size_ == 0) {
        return;
    }
    simd::ops(kernel).gather_bits(words_.data(), mask.words_.data(), words_.size(),
                                  out.words_.data());
}

Bitstring Bitstring::scatter(std::size_t size, const std::vector<std::size_t>& positions,
                             const Bitstring& values) {
    Bitstring result;
    scatter_into(size, positions, values, result);
    return result;
}

void Bitstring::scatter_into(std::size_t size, std::span<const std::size_t> positions,
                             const Bitstring& values, Bitstring& out) {
    require(values.size() == positions.size(),
            "Bitstring::scatter: values and positions must have matching length");
    out.reset(size);
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const std::size_t p = positions[i];
        require(p < size, "Bitstring::scatter: position out of range");
        const std::uint64_t bit = (values.words_[i / bits_per_word] >> (i % bits_per_word)) & 1u;
        out.words_[p / bits_per_word] |= bit << (p % bits_per_word);
    }
}

template <typename NextSkip>
void Bitstring::flip_at_gaps(NextSkip next_skip) {
    // Walk the geometric gaps between flipped positions; this is an exact
    // sample of the i.i.d. Bernoulli(epsilon) flip process in O(#flips).
    std::size_t position = 0;
    while (true) {
        const std::uint64_t skip = next_skip();
        if (skip >= size_ || position + skip >= size_) {
            break;
        }
        position += static_cast<std::size_t>(skip);
        words_[position / bits_per_word] ^= std::uint64_t{1} << (position % bits_per_word);
        ++position;
        if (position >= size_) {
            break;
        }
    }
}

void Bitstring::apply_noise(Rng& rng, double epsilon) {
    require(epsilon >= 0.0 && epsilon < 1.0, "Bitstring::apply_noise: epsilon must be in [0, 1)");
    if (epsilon == 0.0 || size_ == 0) {
        return;
    }
    // The skip denominator is a loop invariant — hoist the logarithm.
    const double log1p_neg_eps = std::log1p(-epsilon);
    flip_at_gaps([&] { return rng.geometric_skip_with(log1p_neg_eps); });
}

void Bitstring::apply_noise(Rng& rng, const GeometricSkipTable& table) {
    if (size_ == 0) {
        return;
    }
    flip_at_gaps([&] { return table.next_skip(rng); });
}

void Bitstring::apply_noise_dense(Rng& rng, double epsilon) {
    require(epsilon >= 0.0 && epsilon < 1.0,
            "Bitstring::apply_noise_dense: epsilon must be in [0, 1)");
    if (epsilon == 0.0) {
        return;
    }
    for (std::size_t i = 0; i < size_; ++i) {
        if (rng.bernoulli(epsilon)) {
            flip(i);
        }
    }
}

std::string Bitstring::to_string() const {
    std::string text(size_, '0');
    for_each_one([&text](std::size_t index) { text[index] = '1'; });
    return text;
}

std::uint64_t Bitstring::hash() const noexcept {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (value >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    };
    mix(static_cast<std::uint64_t>(size_));
    for (const auto word : words_) {
        mix(word);
    }
    return h;
}

void Bitstring::check_same_size(const Bitstring& other, const char* operation) const {
    if (size_ != other.size_) {
        throw precondition_error(std::string("Bitstring::") + operation + ": size mismatch");
    }
}

void Bitstring::clear_padding() noexcept {
    if (size_ % bits_per_word != 0 && !words_.empty()) {
        const std::uint64_t mask = (std::uint64_t{1} << (size_ % bits_per_word)) - 1;
        words_.back() &= mask;
    }
}

}  // namespace nb
