#include "dtm/messages.hpp"

namespace gc::dtm {

void serialize_replica(net::Writer& w, const ReplicaInfo& info) {
  w.u64(info.sed_uid);
  w.u32(info.endpoint);
  w.u32(info.node);
  w.i64(info.bytes);
}

ReplicaInfo deserialize_replica(net::Reader& r) {
  ReplicaInfo info;
  info.sed_uid = r.u64();
  info.endpoint = r.u32();
  info.node = r.u32();
  info.bytes = r.i64();
  return info;
}

net::Bytes DataRegisterMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  serialize_replica(w, holder);
  w.i32(replicas);
  return w.take();
}

DataRegisterMsg DataRegisterMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataRegisterMsg m;
  m.data_id = r.str();
  m.holder = deserialize_replica(r);
  m.replicas = r.i32();
  return m;
}

net::Bytes DataUnregisterMsg::encode() const {
  net::Writer w;
  w.u64(sed_uid);
  w.str(data_id);
  return w.take();
}

DataUnregisterMsg DataUnregisterMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataUnregisterMsg m;
  m.sed_uid = r.u64();
  m.data_id = r.str();
  return m;
}

net::Bytes DataLocateMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  w.u64(requester_uid);
  w.u32(requester_endpoint);
  if (federated) w.u8(1);  // trailing-optional: absent when false
  return w.take();
}

DataLocateMsg DataLocateMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataLocateMsg m;
  m.data_id = r.str();
  m.requester_uid = r.u64();
  m.requester_endpoint = r.u32();
  if (r.remaining() > 0) m.federated = r.u8() != 0;
  return m;
}

net::Bytes DataLocationMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  w.u32(static_cast<std::uint32_t>(replicas.size()));
  for (const auto& replica : replicas) serialize_replica(w, replica);
  return w.take();
}

DataLocationMsg DataLocationMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataLocationMsg m;
  m.data_id = r.str();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    m.replicas.push_back(deserialize_replica(r));
  }
  return m;
}

net::Bytes DataPullMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  w.u64(requester_uid);
  return w.take();
}

DataPullMsg DataPullMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataPullMsg m;
  m.data_id = r.str();
  m.requester_uid = r.u64();
  return m;
}

net::Bytes DataStripeMsg::encode() const {
  net::Writer w;
  w.u64(transfer_id);
  w.str(data_id);
  w.u32(stripe_index);
  w.u32(stripe_count);
  w.u8(found ? 1 : 0);
  w.bytes(value);
  w.i64(total_bytes);
  w.u32(dest_endpoint);
  return w.take();
}

DataStripeMsg DataStripeMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataStripeMsg m;
  m.transfer_id = r.u64();
  m.data_id = r.str();
  m.stripe_index = r.u32();
  m.stripe_count = r.u32();
  m.found = r.u8() != 0;
  m.value = r.bytes();
  m.total_bytes = r.i64();
  m.dest_endpoint = r.u32();
  return m;
}

net::Bytes DataPushMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  w.u8(found ? 1 : 0);
  w.bytes(value);
  w.i64(charged_bytes);
  return w.take();
}

DataPushMsg DataPushMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataPushMsg m;
  m.data_id = r.str();
  m.found = r.u8() != 0;
  m.value = r.bytes();
  m.charged_bytes = r.i64();
  return m;
}

net::Bytes DataReplicateMsg::encode() const {
  net::Writer w;
  w.str(data_id);
  serialize_replica(w, holder);
  return w.take();
}

DataReplicateMsg DataReplicateMsg::decode(const net::Bytes& payload) {
  net::Reader r(payload);
  DataReplicateMsg m;
  m.data_id = r.str();
  m.holder = deserialize_replica(r);
  return m;
}

}  // namespace gc::dtm
