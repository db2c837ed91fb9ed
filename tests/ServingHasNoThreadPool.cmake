# Serving runs on the session thread that read the request: no file of
# the serving layers may name support::ThreadPool, so a pool cannot reach
# serving again through an include, a parameter or a member.
#
# Invoked by ctest (label: unit) with -DSOURCE_DIR.

set(SERVING_DIRS runtime daemon registry rollout store fleet)
foreach(dir ${SERVING_DIRS})
  file(GLOB_RECURSE files ${SOURCE_DIR}/src/${dir}/*)
  if(NOT files)
    message(FATAL_ERROR "no sources under src/${dir}")
  endif()
  foreach(file ${files})
    file(STRINGS ${file} hits REGEX "ThreadPool")
    if(hits)
      file(RELATIVE_PATH rel ${SOURCE_DIR} ${file})
      list(APPEND OFFENDERS ${rel})
    endif()
  endforeach()
endforeach()
if(OFFENDERS)
  message(FATAL_ERROR "serving sources that name ThreadPool: ${OFFENDERS}")
endif()
