#include "workload/replay.hpp"

#include "workload/keygen.hpp"

namespace rhik::workload {

double ReplayResult::throughput_mib() const {
  return mib_per_sec(bytes_written + bytes_read, elapsed);
}

double ReplayResult::throughput_ops() const {
  return ops_per_sec(ops, elapsed);
}

ReplayResult replay(kvssd::KvssdDevice& device, const Trace& trace,
                    const ReplayOptions& opts) {
  ReplayResult result;
  const SimTime t0 = device.clock().now();
  Bytes value;
  std::uint32_t in_flight = 0;

  const auto note = [&result](Status s) {
    if (s == Status::kNotFound) {
      result.not_found++;
    } else if (!ok(s)) {
      result.failed_ops++;
    }
  };
  const auto note_get = [&](Status s, std::uint64_t key_id, const Bytes& v) {
    note(s);
    if (!ok(s)) return;
    result.bytes_read += v.size();
    if (opts.verify_values && !check_value(key_id, v)) result.failed_ops++;
  };

  if (opts.async) {
    // Tag = trace index, so each completion is accounted against its op
    // exactly as the sync path accounts it.
    device.set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
      for (const api::TaggedCompletion& c : done) {
        if (c.op == api::Command::Op::kGet) {
          note_get(c.status, trace[c.tag].key_id, c.value);
        } else {
          note(c.status);
        }
      }
    });
  }

  for (std::uint64_t i = 0; i < trace.size(); ++i) {
    const TraceOp& op = trace[i];
    Bytes key = key_for_id(op.key_id, opts.key_size);
    switch (op.type) {
      case OpType::kPut:
        value.resize(op.value_size);
        fill_value(op.key_id, value);
        result.bytes_written += value.size();
        if (opts.async) {
          device.submit({api::Command::Op::kPut, i, std::move(key), value});
          in_flight++;
        } else {
          note(device.put(key, value));
        }
        break;
      case OpType::kGet:
        if (opts.async) {
          device.submit({api::Command::Op::kGet, i, std::move(key), {}});
          in_flight++;
        } else {
          note_get(device.get(key, &value), op.key_id, value);
        }
        break;
      case OpType::kDel:
        if (opts.async) {
          device.submit({api::Command::Op::kDel, i, std::move(key), {}});
          in_flight++;
        } else {
          note(device.del(key));
        }
        break;
      case OpType::kExist:
        note(device.exist(key));
        break;
    }
    result.ops++;
    if (opts.async && in_flight >= opts.async_batch) {
      device.drain();
      in_flight = 0;
    }
  }
  if (opts.async) {
    device.drain();
    device.set_completion_sink({});
  }
  result.elapsed = device.clock().now() - t0;
  return result;
}

}  // namespace rhik::workload
