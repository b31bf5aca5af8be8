#include "nn/train_state.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/atomic_io.hpp"
#include "util/checksum.hpp"

namespace nettag {

namespace {

// "NTS3": same layout as "NTS2" (which appended shard_index for streaming
// pre-training), bumped when the TAGFormer moved to linear attention: an
// NTS2 record's optimizer moments and step counts belong to the old
// parameter list. Older records are rejected by magic — checkpoints are
// short-lived training artifacts, not archives, so there is no legacy-read
// path.
constexpr std::uint32_t kMagic = 0x4e545333;
constexpr std::uint32_t kMagicV2 = 0x4e545332;

// The record is serialized into one contiguous buffer so the trailing CRC
// can cover every preceding byte; fields are little-endian fixed-width.

void put_u32(std::string& buf, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, sizeof(v));
  buf.append(b, sizeof(v));
}

void put_u64(std::string& buf, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, sizeof(v));
  buf.append(b, sizeof(v));
}

void put_string(std::string& buf, const std::string& s) {
  put_u64(buf, s.size());
  buf.append(s);
}

void put_floats(std::string& buf, const std::vector<float>& v) {
  put_u64(buf, v.size());
  buf.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
}

void put_mats(std::string& buf, const std::vector<Mat>& mats) {
  put_u64(buf, mats.size());
  for (const Mat& m : mats) {
    put_u32(buf, static_cast<std::uint32_t>(m.rows));
    put_u32(buf, static_cast<std::uint32_t>(m.cols));
    buf.append(reinterpret_cast<const char*>(m.v.data()),
               m.v.size() * sizeof(float));
  }
}

/// Bounds-checked reader over the validated buffer. Every get_ throws on
/// overrun, so a short buffer can never yield a partially filled record.
class Reader {
 public:
  Reader(const std::string& buf, const std::string& path)
      : buf_(buf), path_(path) {}

  std::uint32_t get_u32() {
    std::uint32_t v;
    copy(&v, sizeof(v));
    return v;
  }

  std::uint64_t get_u64() {
    std::uint64_t v;
    copy(&v, sizeof(v));
    return v;
  }

  std::string get_string() {
    const std::uint64_t n = checked_count(get_u64(), 1);
    std::string s = buf_.substr(at_, n);
    at_ += n;
    return s;
  }

  std::vector<float> get_floats() {
    const std::uint64_t n = checked_count(get_u64(), sizeof(float));
    std::vector<float> v(n);
    copy(v.data(), n * sizeof(float));
    return v;
  }

  std::vector<Mat> get_mats() {
    const std::uint64_t n = checked_count(get_u64(), 2 * sizeof(std::uint32_t));
    std::vector<Mat> mats;
    mats.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const std::uint32_t r = get_u32();
      const std::uint32_t c = get_u32();
      const std::uint64_t cells =
          checked_count(static_cast<std::uint64_t>(r) * c, sizeof(float));
      Mat m(static_cast<int>(r), static_cast<int>(c));
      copy(m.v.data(), cells * sizeof(float));
      mats.push_back(std::move(m));
    }
    return mats;
  }

  std::size_t consumed() const { return at_; }

 private:
  void copy(void* out, std::size_t n) {
    if (n > buf_.size() - at_) {
      throw std::runtime_error("load_train_state: truncated record " + path_);
    }
    if (n == 0) return;  // `out` may be null for an empty vector
    std::memcpy(out, buf_.data() + at_, n);
    at_ += n;
  }

  /// Rejects counts that cannot possibly fit the remaining bytes *before*
  /// allocating, so a corrupt length cannot trigger a huge allocation.
  std::uint64_t checked_count(std::uint64_t n, std::size_t elem_size) {
    if (n > (buf_.size() - at_) / elem_size) {
      throw std::runtime_error("load_train_state: implausible field length in " +
                               path_);
    }
    return n;
  }

  const std::string& buf_;
  const std::string path_;
  std::size_t at_ = 0;
};

}  // namespace

std::string train_state_path(const std::string& prefix) {
  return prefix + ".trainer.bin";
}

void save_train_state(const std::string& path, const TrainState& state) {
  if (state.adam_m.size() != state.adam_v.size()) {
    throw std::runtime_error(
        "save_train_state: adam moment lists have different lengths");
  }
  std::string buf;
  put_u32(buf, kMagic);
  put_string(buf, state.phase);
  put_u64(buf, state.next_step);
  put_string(buf, state.rng_state);
  put_u64(buf, static_cast<std::uint64_t>(state.adam_t));
  put_mats(buf, state.adam_m);
  put_mats(buf, state.adam_v);
  put_floats(buf, state.extra_params);
  put_floats(buf, state.loss_history);
  put_floats(buf, state.prior_losses);
  put_u64(buf, state.dataset_size);
  put_u64(buf, state.shard_index);
  put_u32(buf, crc32(buf));

  AtomicFileWriter writer(path, /*binary=*/true);
  writer.stream().write(buf.data(), static_cast<std::streamsize>(buf.size()));
  writer.commit();
}

TrainState load_train_state(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_train_state: cannot open " + path);
  std::stringstream raw;
  raw << in.rdbuf();
  std::string buf = raw.str();

  if (buf.size() < sizeof(std::uint32_t) * 2) {
    throw std::runtime_error("load_train_state: truncated record " + path);
  }
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, buf.data() + buf.size() - sizeof(stored_crc),
              sizeof(stored_crc));
  buf.resize(buf.size() - sizeof(stored_crc));
  if (stored_crc != crc32(buf)) {
    throw std::runtime_error("load_train_state: checksum mismatch in " + path +
                             " (truncated or corrupted)");
  }

  Reader r(buf, path);
  const std::uint32_t magic = r.get_u32();
  if (magic == kMagicV2) {
    throw std::runtime_error(
        "load_train_state: " + path +
        " is an NTS2 record, written before the TAGFormer moved to linear "
        "attention; its optimizer state does not fit this model, so the run "
        "cannot resume — retrain from scratch");
  }
  if (magic != kMagic) {
    throw std::runtime_error("load_train_state: bad magic in " + path);
  }
  TrainState state;
  state.phase = r.get_string();
  state.next_step = r.get_u64();
  state.rng_state = r.get_string();
  const std::uint64_t t = r.get_u64();
  if (t > static_cast<std::uint64_t>(std::numeric_limits<long>::max())) {
    throw std::runtime_error("load_train_state: implausible adam_t in " + path);
  }
  state.adam_t = static_cast<long>(t);
  state.adam_m = r.get_mats();
  state.adam_v = r.get_mats();
  state.extra_params = r.get_floats();
  state.loss_history = r.get_floats();
  state.prior_losses = r.get_floats();
  state.dataset_size = r.get_u64();
  state.shard_index = r.get_u64();
  if (r.consumed() != buf.size()) {
    throw std::runtime_error(
        "load_train_state: file longer than its declared payload: " + path);
  }
  if (state.adam_m.size() != state.adam_v.size()) {
    throw std::runtime_error(
        "load_train_state: mismatched adam moment lists in " + path);
  }
  return state;
}

std::vector<float> flatten_param_values(const std::vector<Tensor>& params) {
  std::vector<float> out;
  for (const Tensor& p : params) {
    out.insert(out.end(), p->value.v.begin(), p->value.v.end());
  }
  return out;
}

void restore_param_values(const std::vector<Tensor>& params,
                          const std::vector<float>& values) {
  std::size_t total = 0;
  for (const Tensor& p : params) total += p->value.v.size();
  if (values.size() != total) {
    throw std::runtime_error(
        "restore_param_values: checkpoint holds " +
        std::to_string(values.size()) + " values but the parameter list has " +
        std::to_string(total) +
        " (different architecture or training objectives?)");
  }
  std::size_t at = 0;
  for (const Tensor& p : params) {
    std::copy(values.begin() + static_cast<std::ptrdiff_t>(at),
              values.begin() + static_cast<std::ptrdiff_t>(at + p->value.v.size()),
              p->value.v.begin());
    at += p->value.v.size();
  }
}

}  // namespace nettag
