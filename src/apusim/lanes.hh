/**
 * @file
 * One register's 16-bit lanes (a VR or a VMR slot) with a live
 * extent.
 *
 * A functional retrieval shard fills only a prefix of the 32768
 * lanes; the rest is padding that holds one uniform value. A Lanes
 * object records that shape: lanes [0, extent()) hold arbitrary
 * data and every lane at or beyond extent() holds fill(). The
 * extent-aware GVML ops (see DESIGN.md "Functional lane model") read
 * and write only the live prefix and compute the tail value once.
 *
 * The materialized view full() is what every other caller sees: it
 * writes the fill into the tail on demand, so accessor-visible
 * contents never depend on the extent. The writable full() makes
 * every lane live, since its caller may write anywhere.
 *
 * A Lanes belongs to one core and is not thread-safe; the read-only
 * full() may materialize the tail in place.
 */

#ifndef CISRAM_APUSIM_LANES_HH
#define CISRAM_APUSIM_LANES_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace cisram::apu {

class Lanes
{
  public:
    explicit Lanes(size_t length) : data_(length, 0), extent_(length) {}

    size_t length() const { return data_.size(); }
    size_t extent() const { return extent_; }
    uint16_t fill() const { return fill_; }

    /** Lane `i`'s value; materializes nothing. */
    uint16_t
    at(size_t i) const
    {
        return i < extent_ ? data_[i] : fill_;
    }

    /** Every lane, tail materialized; the extent is kept. */
    const std::vector<uint16_t> &
    full() const
    {
        materialize();
        return data_;
    }

    /** Every lane, tail materialized and made live. */
    std::vector<uint16_t> &
    full()
    {
        materialize();
        extent_ = data_.size();
        return data_;
    }

    /**
     * Grow the live prefix to at least `e` lanes (the new live lanes
     * take the fill) and return it. The value of every lane is
     * unchanged.
     */
    uint16_t *
    live(size_t e)
    {
        if (e > extent_) {
            if (stale_)
                std::fill(data_.begin() + extent_, data_.begin() + e,
                          fill_);
            extent_ = e;
        }
        return data_.data();
    }

    /** The live prefix, read-only: lanes [0, extent()). */
    const uint16_t *live() const { return data_.data(); }

    /**
     * Redefine the register as `e` live lanes followed by `fill`,
     * and return the live prefix for the caller to write. The live
     * prefix keeps its old contents, so an op whose inputs alias
     * this register may widen them first and read them in place.
     */
    uint16_t *
    reshape(size_t e, uint16_t fill)
    {
        // The old contents beyond e are the tail unless they already
        // hold the new fill: old live lanes past e, a stale tail or
        // a different fill all leave it stale.
        stale_ = e < data_.size() &&
            (stale_ || extent_ > e || fill_ != fill);
        extent_ = e;
        fill_ = fill;
        return data_.data();
    }

    /**
     * Become a copy of `src` (another register), touching only its
     * live lanes.
     */
    void
    assign(const Lanes &src)
    {
        size_t e = src.extent_;
        std::copy(src.data_.begin(), src.data_.begin() + e,
                  reshape(e, src.fill_));
    }

  private:
    void
    materialize() const
    {
        if (!stale_)
            return;
        std::fill(data_.begin() + extent_, data_.end(), fill_);
        stale_ = false;
    }

    mutable std::vector<uint16_t> data_;
    size_t extent_;
    uint16_t fill_ = 0;
    /** data_[extent_, length) does not yet hold fill_. */
    mutable bool stale_ = false;
};

} // namespace cisram::apu

#endif // CISRAM_APUSIM_LANES_HH
