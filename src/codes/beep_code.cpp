#include "codes/beep_code.h"

#include "common/error.h"

namespace nb {

BeepCode::BeepCode(std::size_t length, std::size_t weight, std::uint64_t seed)
    : length_(length), weight_(weight), seed_(seed) {
    require(weight > 0, "BeepCode: weight must be positive");
    require(weight <= length, "BeepCode: weight must be <= length");
}

BeepCode BeepCode::theorem4(std::size_t a, std::size_t k, std::size_t c, std::uint64_t seed) {
    require(a > 0 && k > 0 && c > 0, "BeepCode::theorem4: a, k, c must be positive");
    // b = c^2 * k * a; weight = delta*b/k = b/(c*k) = c*a.
    const std::size_t length = c * c * k * a;
    const std::size_t weight = c * a;
    return BeepCode(length, weight, seed);
}

Bitstring BeepCode::codeword(std::uint64_t r) const {
    Rng generator = stream(r);
    return Bitstring::random_with_weight(generator, length_, weight_);
}

std::vector<std::size_t> BeepCode::one_positions(std::uint64_t r) const {
    // The same draws as codeword(r), as a sorted position list.
    return stream(r).distinct_positions(length_, weight_);
}

void BeepCode::codeword_into(std::uint64_t r, Bitstring& codeword,
                             std::vector<std::size_t>& positions) const {
    Rng generator = stream(r);
    Bitstring::random_with_weight_into(generator, length_, weight_, codeword);
    positions.resize(weight_);
    std::size_t i = 0;
    codeword.for_each_one([&positions, &i](std::size_t p) { positions[i++] = p; });
}

}  // namespace nb
