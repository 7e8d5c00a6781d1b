# SIMD COMDAT link check, run as `ctest -R simd_comdat`.
#
# An inline function or template instantiation used by a translation
# unit compiled with -mavx2/-mavx512f is emitted there as a weak
# (COMDAT) symbol. When a generic object defines the same symbol, the
# linker keeps one copy, possibly the ISA-specific one, and generic
# callers then run AVX code without a CPU check; when another SIMD
# object defines it, AVX2 callers may get the AVX-512 copy. This script
# fails when any SIMD object defines a weak function symbol that any
# other object under SCAN_DIR, generic or SIMD, also defines.
#
# Inputs: NM (nm binary), SIMD_OBJECTS (list of SIMD object files),
# SCAN_DIR (build tree whose other *.o files are the generic objects).

foreach(var NM SIMD_OBJECTS SCAN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_simd_comdat: ${var} is not set")
  endif()
endforeach()

file(GLOB_RECURSE all_objects "${SCAN_DIR}/*.o")
set(generic_objects "")
foreach(obj IN LISTS all_objects)
  list(FIND SIMD_OBJECTS "${obj}" idx)
  if(idx EQUAL -1)
    list(APPEND generic_objects "${obj}")
  endif()
endforeach()
list(LENGTH generic_objects n_generic)
if(n_generic EQUAL 0)
  message(FATAL_ERROR "check_simd_comdat: no generic objects under ${SCAN_DIR}")
endif()

execute_process(COMMAND ${NM} --defined-only ${generic_objects}
  OUTPUT_VARIABLE generic_syms RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_simd_comdat: nm failed on the generic objects")
endif()

set(violations "")
foreach(obj IN LISTS SIMD_OBJECTS)
  if(NOT EXISTS "${obj}")
    message(FATAL_ERROR "check_simd_comdat: missing SIMD object ${obj}")
  endif()
  set(others ${SIMD_OBJECTS})
  list(REMOVE_ITEM others "${obj}")
  set(other_syms "${generic_syms}")
  if(others)
    execute_process(COMMAND ${NM} --defined-only ${others}
      OUTPUT_VARIABLE other_simd_syms RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "check_simd_comdat: nm failed on the SIMD objects")
    endif()
    string(APPEND other_syms "${other_simd_syms}")
  endif()
  execute_process(COMMAND ${NM} --defined-only "${obj}"
    OUTPUT_VARIABLE simd_syms RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_simd_comdat: nm failed on ${obj}")
  endif()
  string(REPLACE "\n" ";" lines "${simd_syms}")
  foreach(line IN LISTS lines)
    # "<address> W <mangled name>": a weak function definition.
    if(line MATCHES "^[0-9a-fA-F]+ W (.+)$")
      set(sym "${CMAKE_MATCH_1}")
      string(FIND "${other_syms}" " ${sym}\n" pos)
      if(NOT pos EQUAL -1)
        string(APPEND violations "  ${sym}\n    in ${obj}\n")
      endif()
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
    "SIMD objects share weak function symbols with other objects "
    "(keep std:: containers and other inline helpers out of SIMD "
    "translation units):\n${violations}")
endif()
list(LENGTH SIMD_OBJECTS n_simd)
message(STATUS "simd_comdat: ${n_simd} SIMD objects, ${n_generic} generic objects, no shared weak functions")
