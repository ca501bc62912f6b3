#include "persist/wal_format.h"

#include <cstring>

namespace rar {

namespace {

const uint32_t* Crc32Table() {
  static uint32_t table[256];
  static bool built = [] {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return true;
  }();
  (void)built;
  return table;
}

constexpr size_t kFrameHeader = 8;  // u32 length + u32 crc
constexpr size_t kFrameBodyMin = 9;  // u64 sequence + u8 type

uint32_t LoadU32(const char* p) {
  // Explicit little-endian, matching BinWriter::U32 — a native memcpy
  // would misparse every frame on a big-endian host and read the whole
  // log as a torn tail.
  const uint8_t* b = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const uint32_t* table = Crc32Table();
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

Status BinReader::U8(uint8_t* v) {
  if (remaining() < 1) return Status::ParseError("payload truncated (u8)");
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BinReader::U32(uint32_t* v) {
  if (remaining() < 4) return Status::ParseError("payload truncated (u32)");
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status BinReader::U64(uint64_t* v) {
  if (remaining() < 8) return Status::ParseError("payload truncated (u64)");
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status BinReader::Str(std::string* v) {
  uint32_t n;
  RAR_RETURN_NOT_OK(U32(&n));
  if (remaining() < n) return Status::ParseError("payload truncated (str)");
  v->assign(data_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

void EncodeFrame(uint64_t sequence, WalRecordType type,
                 std::string_view payload, std::string* out) {
  std::string body;
  body.reserve(kFrameBodyMin + payload.size());
  BinWriter w(&body);
  w.U64(sequence);
  w.U8(static_cast<uint8_t>(type));
  body.append(payload.data(), payload.size());

  BinWriter head(out);
  head.U32(static_cast<uint32_t>(body.size()));
  head.U32(Crc32(body.data(), body.size()));
  out->append(body);
}

FrameResult DecodeFrame(std::string_view data, size_t* offset,
                        WalRecord* out) {
  size_t off = *offset;
  if (data.size() - off < kFrameHeader) return FrameResult::kEnd;
  uint32_t length = LoadU32(data.data() + off);
  uint32_t crc = LoadU32(data.data() + off + 4);
  if (length < kFrameBodyMin) return FrameResult::kEnd;
  if (data.size() - off - kFrameHeader < length) return FrameResult::kEnd;
  const char* body = data.data() + off + kFrameHeader;
  if (Crc32(body, length) != crc) return FrameResult::kEnd;

  BinReader r(std::string_view(body, length));
  uint8_t type;
  Status s = r.U64(&out->sequence);
  if (s.ok()) s = r.U8(&type);
  if (!s.ok()) return FrameResult::kEnd;
  out->type = static_cast<WalRecordType>(type);
  out->payload.assign(body + kFrameBodyMin, length - kFrameBodyMin);
  *offset = off + kFrameHeader + length;
  return FrameResult::kRecord;
}

// ---------------------------------------------------------------------------
// Values

namespace {
constexpr uint8_t kValueConstant = 0;
constexpr uint8_t kValueNull = 1;
}  // namespace

void EncodeValue(const Schema& schema, Value v, BinWriter* w) {
  if (v.is_constant()) {
    w->U8(kValueConstant);
    w->Str(schema.ConstantSpelling(v));
  } else {
    w->U8(kValueNull);
    w->U32(v.id());
  }
}

Status DecodeValue(const Schema& schema, BinReader* r, Value* out) {
  uint8_t kind;
  RAR_RETURN_NOT_OK(r->U8(&kind));
  if (kind == kValueConstant) {
    std::string spelling;
    RAR_RETURN_NOT_OK(r->Str(&spelling));
    *out = schema.InternConstant(spelling);
    return Status::OK();
  }
  if (kind == kValueNull) {
    uint32_t label;
    RAR_RETURN_NOT_OK(r->U32(&label));
    *out = Value::Null(label);
    return Status::OK();
  }
  return Status::ParseError("unknown value kind tag");
}

// ---------------------------------------------------------------------------
// Queries

void EncodeUnionQuery(const Schema& schema, const UnionQuery& q,
                      BinWriter* w) {
  w->U32(static_cast<uint32_t>(q.disjuncts.size()));
  for (const ConjunctiveQuery& cq : q.disjuncts) {
    w->U32(static_cast<uint32_t>(cq.var_names.size()));
    for (size_t i = 0; i < cq.var_names.size(); ++i) {
      w->Str(cq.var_names[i]);
      DomainId dom = cq.var_domains[i];
      w->Str(dom == kInvalidId ? std::string_view()
                               : std::string_view(schema.domain_name(dom)));
    }
    w->U32(static_cast<uint32_t>(cq.head.size()));
    for (VarId v : cq.head) w->U32(v);
    w->U32(static_cast<uint32_t>(cq.atoms.size()));
    for (const Atom& a : cq.atoms) {
      w->Str(schema.relation(a.relation).name);
      w->U32(static_cast<uint32_t>(a.terms.size()));
      for (const Term& t : a.terms) {
        if (t.is_const()) {
          w->U8(1);
          EncodeValue(schema, t.constant, w);
        } else {
          w->U8(0);
          w->U32(t.var);
        }
      }
    }
  }
}

Status DecodeUnionQuery(const Schema& schema, BinReader* r, UnionQuery* out) {
  out->disjuncts.clear();
  uint32_t ndisj;
  RAR_RETURN_NOT_OK(r->U32(&ndisj));
  for (uint32_t d = 0; d < ndisj; ++d) {
    ConjunctiveQuery cq;
    uint32_t nvars;
    RAR_RETURN_NOT_OK(r->U32(&nvars));
    for (uint32_t i = 0; i < nvars; ++i) {
      std::string name, dom_name;
      RAR_RETURN_NOT_OK(r->Str(&name));
      RAR_RETURN_NOT_OK(r->Str(&dom_name));
      DomainId dom = kInvalidId;
      if (!dom_name.empty()) {
        dom = schema.FindDomain(dom_name);
        if (dom == kInvalidId) {
          return Status::ParseError("query references unknown domain '" +
                                    dom_name + "'");
        }
      }
      cq.AddVar(std::move(name), dom);
    }
    uint32_t nhead;
    RAR_RETURN_NOT_OK(r->U32(&nhead));
    for (uint32_t i = 0; i < nhead; ++i) {
      uint32_t v;
      RAR_RETURN_NOT_OK(r->U32(&v));
      if (v >= nvars) return Status::ParseError("query head var out of range");
      cq.head.push_back(static_cast<VarId>(v));
    }
    uint32_t natoms;
    RAR_RETURN_NOT_OK(r->U32(&natoms));
    for (uint32_t i = 0; i < natoms; ++i) {
      Atom atom;
      std::string rel_name;
      RAR_RETURN_NOT_OK(r->Str(&rel_name));
      atom.relation = schema.FindRelation(rel_name);
      if (atom.relation == kInvalidId) {
        return Status::ParseError("query references unknown relation '" +
                                  rel_name + "'");
      }
      uint32_t nterms;
      RAR_RETURN_NOT_OK(r->U32(&nterms));
      for (uint32_t t = 0; t < nterms; ++t) {
        uint8_t kind;
        RAR_RETURN_NOT_OK(r->U8(&kind));
        if (kind == 1) {
          Value v;
          RAR_RETURN_NOT_OK(DecodeValue(schema, r, &v));
          atom.terms.push_back(Term::MakeConst(v));
        } else if (kind == 0) {
          uint32_t v;
          RAR_RETURN_NOT_OK(r->U32(&v));
          if (v >= nvars) {
            return Status::ParseError("query atom var out of range");
          }
          atom.terms.push_back(Term::MakeVar(static_cast<VarId>(v)));
        } else {
          return Status::ParseError("unknown term kind tag");
        }
      }
      cq.atoms.push_back(std::move(atom));
    }
    out->disjuncts.push_back(std::move(cq));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Stream options

void EncodeStreamOptions(const StreamOptions& o, BinWriter* w) {
  uint8_t flags = 0;
  if (o.use_immediate) flags |= 1u << 0;
  if (o.use_long_term) flags |= 1u << 1;
  if (o.conservative_on_unknown) flags |= 1u << 2;
  if (o.force_full_recheck) flags |= 1u << 3;
  if (o.retain_events) flags |= 1u << 4;
  w->U8(flags);
  // The slot of the retired wave threshold: written as 8, its old
  // default, and discarded on read, so the format is unchanged.
  w->U64(8);
  w->U64(o.retain_cap);
}

Status DecodeStreamOptions(BinReader* r, StreamOptions* out) {
  uint8_t flags;
  uint64_t unused_threshold, retain_cap;
  RAR_RETURN_NOT_OK(r->U8(&flags));
  RAR_RETURN_NOT_OK(r->U64(&unused_threshold));
  RAR_RETURN_NOT_OK(r->U64(&retain_cap));
  out->use_immediate = (flags & (1u << 0)) != 0;
  out->use_long_term = (flags & (1u << 1)) != 0;
  out->conservative_on_unknown = (flags & (1u << 2)) != 0;
  out->force_full_recheck = (flags & (1u << 3)) != 0;
  out->retain_events = (flags & (1u << 4)) != 0;
  out->retain_cap = retain_cap;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record payloads

std::string EncodeApplyPayload(const Schema& schema, const AccessMethodSet& acs,
                               const Access& access,
                               const std::vector<Fact>& response) {
  std::string out;
  BinWriter w(&out);
  w.Str(acs.method(access.method).name);
  w.U32(static_cast<uint32_t>(access.binding.size()));
  for (Value v : access.binding) EncodeValue(schema, v, &w);
  w.U32(static_cast<uint32_t>(response.size()));
  for (const Fact& f : response) {
    w.U32(static_cast<uint32_t>(f.values.size()));
    for (Value v : f.values) EncodeValue(schema, v, &w);
  }
  return out;
}

Status DecodeApplyPayload(const Schema& schema, const AccessMethodSet& acs,
                          std::string_view payload, Access* access,
                          std::vector<Fact>* response) {
  BinReader r(payload);
  std::string method_name;
  RAR_RETURN_NOT_OK(r.Str(&method_name));
  AccessMethodId mid = acs.Find(method_name);
  if (mid == kInvalidId) {
    return Status::ParseError("apply record references unknown method '" +
                              method_name + "'");
  }
  access->method = mid;
  access->binding.clear();
  uint32_t nbind;
  RAR_RETURN_NOT_OK(r.U32(&nbind));
  for (uint32_t i = 0; i < nbind; ++i) {
    Value v;
    RAR_RETURN_NOT_OK(DecodeValue(schema, &r, &v));
    access->binding.push_back(v);
  }
  const RelationId rel = acs.method(mid).relation;
  response->clear();
  uint32_t nfacts;
  RAR_RETURN_NOT_OK(r.U32(&nfacts));
  for (uint32_t i = 0; i < nfacts; ++i) {
    uint32_t nvals;
    RAR_RETURN_NOT_OK(r.U32(&nvals));
    std::vector<Value> vals;
    vals.reserve(nvals);
    for (uint32_t j = 0; j < nvals; ++j) {
      Value v;
      RAR_RETURN_NOT_OK(DecodeValue(schema, &r, &v));
      vals.push_back(v);
    }
    response->emplace_back(rel, std::move(vals));
  }
  return Status::OK();
}

std::string EncodeQueryRegisterPayload(const Schema& schema,
                                       const UnionQuery& q) {
  std::string out;
  BinWriter w(&out);
  EncodeUnionQuery(schema, q, &w);
  return out;
}

Status DecodeQueryRegisterPayload(const Schema& schema,
                                  std::string_view payload, UnionQuery* out) {
  BinReader r(payload);
  return DecodeUnionQuery(schema, &r, out);
}

std::string EncodeStreamRegisterPayload(const Schema& schema,
                                        const StreamRegisterPayload& p) {
  std::string out;
  BinWriter w(&out);
  EncodeUnionQuery(schema, p.query, &w);
  EncodeStreamOptions(p.options, &w);
  w.U32(static_cast<uint32_t>(p.fresh_pool.size()));
  for (const auto& [dom, spelling] : p.fresh_pool) {
    w.Str(schema.domain_name(dom));
    w.Str(spelling);
  }
  return out;
}

Status DecodeStreamRegisterPayload(const Schema& schema,
                                   std::string_view payload,
                                   StreamRegisterPayload* out) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(DecodeUnionQuery(schema, &r, &out->query));
  RAR_RETURN_NOT_OK(DecodeStreamOptions(&r, &out->options));
  out->fresh_pool.clear();
  uint32_t n;
  RAR_RETURN_NOT_OK(r.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string dom_name, spelling;
    RAR_RETURN_NOT_OK(r.Str(&dom_name));
    RAR_RETURN_NOT_OK(r.Str(&spelling));
    DomainId dom = schema.FindDomain(dom_name);
    if (dom == kInvalidId) {
      return Status::ParseError("fresh pool references unknown domain '" +
                                dom_name + "'");
    }
    out->fresh_pool.emplace_back(dom, std::move(spelling));
  }
  return Status::OK();
}

std::string EncodeStreamCursorPayload(uint32_t stream_id, uint64_t acked) {
  std::string out;
  BinWriter w(&out);
  w.U32(stream_id);
  w.U64(acked);
  return out;
}

Status DecodeStreamCursorPayload(std::string_view payload, uint32_t* stream_id,
                                 uint64_t* acked) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U32(stream_id));
  RAR_RETURN_NOT_OK(r.U64(acked));
  return Status::OK();
}

std::string EncodeSessionOpenPayload(uint64_t session_id, uint64_t nonce) {
  std::string out;
  BinWriter w(&out);
  w.U64(session_id);
  w.U64(nonce);
  return out;
}

Status DecodeSessionOpenPayload(std::string_view payload, uint64_t* session_id,
                                uint64_t* nonce) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U64(session_id));
  RAR_RETURN_NOT_OK(r.U64(nonce));
  return Status::OK();
}

std::string EncodeSessionRetirePayload(uint64_t session_id) {
  std::string out;
  BinWriter w(&out);
  w.U64(session_id);
  return out;
}

Status DecodeSessionRetirePayload(std::string_view payload,
                                  uint64_t* session_id) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U64(session_id));
  return Status::OK();
}

std::string EncodeTaggedPayload(uint64_t session_id, uint64_t request_id,
                                std::string_view inner) {
  std::string out;
  BinWriter w(&out);
  w.U64(session_id);
  w.U64(request_id);
  out.append(inner.data(), inner.size());
  return out;
}

Status SplitTaggedPayload(std::string_view payload, uint64_t* session_id,
                          uint64_t* request_id, std::string_view* inner) {
  BinReader r(payload);
  RAR_RETURN_NOT_OK(r.U64(session_id));
  RAR_RETURN_NOT_OK(r.U64(request_id));
  *inner = payload.substr(16);
  return Status::OK();
}

}  // namespace rar
