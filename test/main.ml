(* Aggregated test runner: every [Test_*] module exposes [suites]. *)

let () =
  Alcotest.run "htvm"
    (List.concat
       [ Test_util.suites;
         Test_tensor.suites;
         Test_nn.suites;
         Test_ir.suites;
         Test_byoc.suites;
         Test_arch.suites;
         Test_dory.suites;
         Test_sim.suites;
         Test_models.suites;
         Test_htvm.suites;
         Test_fuzz.suites;
         Test_rewrite.suites;
         Test_text.suites;
         Test_quant.suites;
         Test_extensions.suites;
         Test_tune.suites;
         Test_fused_pool.suites;
         Test_faults.suites;
         Test_chain.suites;
         Test_report.suites;
         Test_concat.suites;
         Test_misc.suites;
         Test_props.suites;
         Test_trace.suites;
         Test_pool.suites;
         Test_parallel.suites;
         Test_check.suites;
         Test_shrink.suites;
         Test_golden.suites;
         Test_plan.suites;
         Test_size.suites;
         Test_fault.suites;
         Test_serve.suites;
         Test_mtserve.suites;
         Test_health.suites;
         Test_metrics.suites;
         Test_store.suites;
         Test_cli.suites;
       ])
