// Provenance of this build, stamped when CMake configures the build tree
// (src/support/CMakeLists.txt): the commit checked out then, read from the
// local git metadata without any network access ("unknown" outside a git
// checkout, "-dirty" appended when the tree had uncommitted changes), and
// the build type.
#pragma once

namespace ccref {

[[nodiscard]] const char* build_commit();
[[nodiscard]] const char* build_type();

}  // namespace ccref
