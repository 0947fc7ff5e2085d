#include "diet/data.hpp"

#include <cstdio>
#include <filesystem>
#include <limits>

#include "check/invariant.hpp"
#include "check/statehash.hpp"

namespace gc::diet {

const char* to_string(DataType t) {
  switch (t) {
    case DataType::kScalar: return "scalar";
    case DataType::kVector: return "vector";
    case DataType::kMatrix: return "matrix";
    case DataType::kString: return "string";
    case DataType::kFile: return "file";
  }
  return "?";
}

const char* to_string(BaseType t) {
  switch (t) {
    case BaseType::kChar: return "char";
    case BaseType::kShort: return "short";
    case BaseType::kInt: return "int";
    case BaseType::kLongInt: return "longint";
    case BaseType::kFloat: return "float";
    case BaseType::kDouble: return "double";
  }
  return "?";
}

const char* to_string(Persistence p) {
  switch (p) {
    case Persistence::kVolatile: return "volatile";
    case Persistence::kPersistentReturn: return "persistent_return";
    case Persistence::kPersistent: return "persistent";
    case Persistence::kSticky: return "sticky";
  }
  return "?";
}

std::size_t base_type_size(BaseType t) {
  switch (t) {
    case BaseType::kChar: return 1;
    case BaseType::kShort: return 2;
    case BaseType::kInt: return 4;
    case BaseType::kLongInt: return 8;
    case BaseType::kFloat: return 4;
    case BaseType::kDouble: return 8;
  }
  return 0;
}

std::uint64_t ArgDesc::element_count() const {
  // rows and cols come off the wire, so a hostile (or corrupted) message
  // can carry a shape whose product wraps 64 bits — and whose honest
  // product, scaled by the element size, would wrap payload_bytes() into
  // a bogus (even negative) modeled volume. Clamp at a ceiling no real
  // argument approaches, chosen so kMaxElements * 8 still fits int64.
  constexpr std::uint64_t kMaxElements =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) /
      8;
  if (cols != 0 && rows > kMaxElements / cols) {
    GC_INVARIANT(false, "ArgDesc rows*cols overflows; clamped");
    return kMaxElements;
  }
  return rows * cols;
}

std::int64_t ArgDesc::payload_bytes() const {
  if (type == DataType::kFile) return 0;  // files priced from the value
  return static_cast<std::int64_t>(element_count() * base_type_size(base));
}

void ArgDesc::serialize(net::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(static_cast<std::uint8_t>(base));
  w.u8(static_cast<std::uint8_t>(persistence));
  w.u64(rows);
  w.u64(cols);
}

ArgDesc ArgDesc::deserialize(net::Reader& r) {
  ArgDesc d;
  d.type = static_cast<DataType>(r.u8());
  d.base = static_cast<BaseType>(r.u8());
  d.persistence = static_cast<Persistence>(r.u8());
  d.rows = r.u64();
  d.cols = r.u64();
  return d;
}

gc::Status ArgValue::set_string(const std::string& value, Persistence mode) {
  desc.type = DataType::kString;
  desc.base = BaseType::kChar;
  desc.persistence = mode;
  desc.rows = value.size();
  desc.cols = 1;
  data_.assign(value.begin(), value.end());
  file_path_.clear();
  modeled_bytes_ = 0;
  has_value_ = true;
  return Status::ok();
}

gc::Status ArgValue::set_file(const std::string& path, Persistence mode,
                              std::int64_t modeled_bytes) {
  desc.type = DataType::kFile;
  desc.base = BaseType::kChar;
  desc.persistence = mode;
  desc.rows = desc.cols = 1;
  data_.clear();
  file_path_ = path;
  if (modeled_bytes >= 0) {
    modeled_bytes_ = modeled_bytes;
  } else if (!path.empty()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    modeled_bytes_ = ec ? 0 : static_cast<std::int64_t>(size);
  } else {
    modeled_bytes_ = 0;
  }
  has_value_ = true;
  return Status::ok();
}

gc::Result<std::string> ArgValue::get_string() const {
  if (!has_value_ || desc.type != DataType::kString) {
    return make_error(ErrorCode::kFailedPrecondition, "no string value");
  }
  return std::string(data_.begin(), data_.end());
}

gc::Result<ArgValue::FileRef> ArgValue::get_file() const {
  if (!has_value_ || desc.type != DataType::kFile) {
    return make_error(ErrorCode::kFailedPrecondition, "no file value");
  }
  return FileRef{file_path_, modeled_bytes_};
}

std::int64_t ArgValue::wire_bytes() const {
  if (!has_value_) return 0;
  // References ship the id only: the payload stays on the server.
  if (is_reference_) return static_cast<std::int64_t>(data_id_.size());
  if (desc.type == DataType::kFile) return modeled_bytes_;
  return static_cast<std::int64_t>(data_.size());
}

std::string ArgValue::content_id() const {
  // FNV-1a over the identifying content.
  check::Fnv hash{check::kFnvOffsetBasis};
  hash.bytes(&desc.type, sizeof desc.type);
  if (desc.type == DataType::kFile) {
    hash.bytes(file_path_.data(), file_path_.size());
    hash.bytes(&modeled_bytes_, sizeof modeled_bytes_);
  } else {
    hash.bytes(data_.data(), data_.size());
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "d%016llx",
                static_cast<unsigned long long>(hash.h));
  return buffer;
}

void ArgValue::make_reference() {
  GC_CHECK_MSG(!data_id_.empty(), "reference needs a data id");
  is_reference_ = true;
  has_value_ = true;
  data_.clear();
  file_path_.clear();
  modeled_bytes_ = 0;
}

void ArgValue::materialize_from(const ArgValue& stored) {
  const Persistence mode = desc.persistence;
  const std::string id = data_id_;
  *this = stored;
  desc.persistence = mode;
  data_id_ = id;
  is_reference_ = false;
}

void ArgValue::serialize_value(net::Writer& w) const {
  desc.serialize(w);
  std::uint8_t flags = 0;
  if (has_value_) flags |= 1;
  if (is_reference_) flags |= 2;
  w.u8(flags);
  w.str(data_id_);
  if (!has_value_ || is_reference_) return;
  if (desc.type == DataType::kFile) {
    w.str(file_path_);
    w.i64(modeled_bytes_);
  } else {
    w.bytes(data_);
  }
}

void ArgValue::deserialize_value(net::Reader& r) {
  desc = ArgDesc::deserialize(r);
  const std::uint8_t flags = r.u8();
  has_value_ = (flags & 1) != 0;
  is_reference_ = (flags & 2) != 0;
  data_id_ = r.str();
  data_.clear();
  file_path_.clear();
  modeled_bytes_ = 0;
  if (!has_value_ || is_reference_) return;
  if (desc.type == DataType::kFile) {
    file_path_ = r.str();
    modeled_bytes_ = r.i64();
  } else {
    data_ = r.bytes();
  }
}

}  // namespace gc::diet
