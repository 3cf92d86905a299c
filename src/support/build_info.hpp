// Provenance of this build, stamped when CMake configures the build tree
// (src/support/CMakeLists.txt): the commit checked out then, read from the
// local git metadata without any network access ("unknown" outside a git
// checkout, "-dirty" appended when the tree had uncommitted changes), and
// the build type; plus the CPU the binary runs on, for the rows it measures.
#pragma once

namespace ccref {

[[nodiscard]] const char* build_commit();
[[nodiscard]] const char* build_type();
/// The running CPU's brand string (CPUID), "unknown" where there is none.
[[nodiscard]] const char* host_cpu();

}  // namespace ccref
