// Content Identifier (CID).
//
// A CID uniquely identifies a piece of content by the SHA-256 digest of its
// canonical encoding, tagged with a codec describing what the content is
// (paper §III-B: "Checkpoints are always identified through their Content
// Identifier (CID), a unique identifier inferred from the checkpoint's
// hash"). The codec tag mirrors multiformats CIDs without the multibase
// framing.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/hash.hpp"

namespace hc {

/// What kind of content a CID points to. Purely informational; equality and
/// lookup include the codec so distinct kinds never collide.
enum class CidCodec : std::uint8_t {
  kRaw = 0,         // opaque bytes
  kMessage = 1,     // chain message
  kBlock = 2,       // block
  kStateRoot = 3,   // state tree commitment
  kCheckpoint = 4,  // subnet checkpoint
  kCrossMsgs = 5,   // batch of cross-net messages (CrossMsgMeta payload)
  kActorState = 6,  // actor state blob
};

class Cid {
 public:
  /// The zero CID: used as "no previous checkpoint" / "no parent" sentinel.
  Cid() : codec_(CidCodec::kRaw), digest_{} {}

  Cid(CidCodec codec, Digest digest) : codec_(codec), digest_(digest) {}

  /// CID of a content blob under the given codec.
  [[nodiscard]] static Cid of(CidCodec codec, BytesView content) {
    return Cid(codec, Sha256::hash(content));
  }

  [[nodiscard]] CidCodec codec() const { return codec_; }
  [[nodiscard]] const Digest& digest() const { return digest_; }
  /// The digest as bytes: the key under which maps index a CID.
  [[nodiscard]] Bytes digest_bytes() const {
    return Bytes(digest_.begin(), digest_.end());
  }

  /// True iff this is the default/zero sentinel.
  [[nodiscard]] bool is_null() const;

  /// Short human form, e.g. "cid:4:a1b2c3d4…" (codec + first 8 digest hex).
  [[nodiscard]] std::string to_string() const;
  /// Full hex form.
  [[nodiscard]] std::string to_hex() const;

  friend auto operator<=>(const Cid&, const Cid&) = default;

  void encode_to(Encoder& e) const {
    e.u8(static_cast<std::uint8_t>(codec_)).raw(digest_view(digest_));
  }
  [[nodiscard]] static Result<Cid> decode_from(Decoder& d);

 private:
  CidCodec codec_;
  Digest digest_;
};

}  // namespace hc

template <>
struct std::hash<hc::Cid> {
  std::size_t operator()(const hc::Cid& c) const noexcept {
    // The digest is itself uniformly distributed; fold the first 8 bytes.
    std::size_t h = 0;
    for (int i = 0; i < 8; ++i) {
      h = (h << 8) | c.digest()[static_cast<std::size_t>(i)];
    }
    return h ^ static_cast<std::size_t>(c.codec());
  }
};
