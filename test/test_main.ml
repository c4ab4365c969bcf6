let () =
  Alcotest.run "sw_gromacs"
    (Test_swarch.suites @ Test_swcache.suites @ Test_mdcore.suites
    @ Test_swgmx.suites @ Test_swcomm.suites @ Test_swio.suites
    @ Test_engine.suites @ Test_swbench.suites @ Test_extensions.suites
    @ Test_swtrace.suites @ Test_swsched.suites @ Test_swstep.suites
    @ Test_swfault.suites @ Test_platform.suites
    @ Test_swpar.suites @ Test_swoffload.suites @ Test_alloc.suites
    @ Test_swverify.suites)
