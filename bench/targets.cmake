# Bench binaries land directly in ${CMAKE_BINARY_DIR}/bench with no CMake
# scaffolding alongside, so `for b in build/bench/*; do $b; done` runs
# exactly the benchmark suite.
function(warper_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} PRIVATE
    warper_eval warper_qo warper_baselines warper_serve warper_core warper_ce
    warper_drift warper_workload warper_storage warper_ml warper_nn warper_util)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

warper_bench(fig01_motivation)
warper_bench(fig05_workload_viz)
warper_bench(fig06_workload_drift)
warper_bench(fig07_adaptation_viz)
warper_bench(fig08_adaptation_grid)
warper_bench(fig09_endtoend)
warper_bench(fig10_hyperparams)
warper_bench(fig11_ngen_sweep)
warper_bench(tab06_costs)
warper_bench(tab07b_models)
warper_bench(tab07c_drifts)
warper_bench(tab07d_join_ce)
warper_bench(tab08_workload_pairs)
warper_bench(tab10_ablation)
warper_bench(bench_annotate)
warper_bench(bench_parallel)
warper_bench(bench_kernels)
warper_bench(bench_serving)
warper_bench(bench_targeted)
warper_bench(bench_driftgrid)
