#include "common/word_soa.h"

#include <bit>

#include "common/error.h"

namespace nb {

void WordSoa::build(std::span<const Bitstring> columns) {
    count_ = columns.size();
    if (count_ == 0) {
        data_.clear();
        stride_ = words_ = bits_ = 0;
        return;
    }
    bits_ = columns.front().size();
    words_ = columns.front().words().size();
    stride_ = padded_words(count_);
    data_.assign(words_ * stride_, 0);
    for (std::size_t c = 0; c < count_; ++c) {
        const Bitstring& column = columns[c];
        require(column.size() == bits_, "WordSoa::build: column lengths must match");
        const std::vector<std::uint64_t>& words = column.words();
        for (std::size_t w = 0; w < words_; ++w) {
            data_[w * stride_ + c] = words[w];
        }
    }
}

std::size_t WordSoa::column_distance(const std::uint64_t* received, std::size_t c) const {
    require(c < count_, "WordSoa::column_distance: column out of range");
    std::size_t total = 0;
    for (std::size_t w = 0; w < words_; ++w) {
        total += static_cast<std::size_t>(std::popcount(data_[w * stride_ + c] ^ received[w]));
    }
    return total;
}

}  // namespace nb
