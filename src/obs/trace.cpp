#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace rhik::obs {

const char* to_string(OpKind k) noexcept {
  switch (k) {
    case OpKind::kPut: return "put";
    case OpKind::kGet: return "get";
    case OpKind::kDel: return "del";
    case OpKind::kExist: return "exist";
  }
  return "?";
}

const char* to_string(Stage s) noexcept {
  switch (s) {
    case Stage::kIndex: return "index";
    case Stage::kFlash: return "flash";
    case Stage::kGc: return "gc";
    case Stage::kCount: break;
  }
  return "?";
}

std::string OpTrace::to_string() const {
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "#%" PRIu64 " %-5s %-12s total=%" PRIu64 "ns queue=%" PRIu64
                " index=%" PRIu64 " flash=%" PRIu64 " gc=%" PRIu64
                " reads=%" PRIu64 " (index %" PRIu64 ")",
                seq, obs::to_string(kind),
                std::string(rhik::to_string(status)).c_str(), total_ns,
                queue_ns, stage(Stage::kIndex), stage(Stage::kFlash),
                stage(Stage::kGc), flash_reads, index_flash_reads);
  return buf;
}

}  // namespace rhik::obs
