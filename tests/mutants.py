"""Hand mutants of the package, and the tier-1 tests that kill each.

A row of ``MUTANTS`` is ``name: (file, old text, new text, killing tests)``:
the mutant replaces the old text, which occurs in the file exactly once, by
the new text, and running the killing tests (pytest node ids) on the mutated
tree fails. ``python3 tools/mutate.py`` runs every row on a copy of the
working tree; ``tests/test_mutate.py`` checks, without running a mutant,
that each old text occurs once and that each killing test exists.

A test that is made cheaper must still kill each row it killed, and a test
that is deleted must leave each of its rows to a test that stays. A change
that adds a clause adds the mutants that show its tests catch it here.
"""

KERNELS = "src/jumpfilter/kernels.py"
HARNESS = "src/jumpfilter/harness.py"
CHAIN = "src/jumpfilter/chain.py"
CLI = "src/jumpfilter/cli.py"
WONHAM = "src/jumpfilter/wonham.py"
SIGNALPATH = "src/jumpfilter/signalpath.py"

CONTRACT = "tests/test_kernel_contract.py::"
ZAKAI_TESTS = "tests/test_zakai.py::"
EXIT_CODE = "tests/test_cli_contract.py::test_one_edit_gives_its_exit_code"

MUTANTS = {
    # -- the kernel contract: every clause of a run, over every scheme
    "check_increments passes non-finite increments": (
        KERNELS,
        "    if dy.size and not (np.isfinite(dy.min()) and np.isfinite(dy.max())):\n",
        "    if False:\n",
        [CONTRACT + "test_increments_are_finite_before_step_one"],
    ),
    "normalize never counts": (
        KERNELS,
        "    clamped = int(np.count_nonzero(raw <= 0.0))\n",
        "    clamped = 0\n",
        [CONTRACT + "test_a_non_finite_extra_fails_the_run"],
    ),
    "normalize counts but returns 0": (
        KERNELS,
        "    return floored / total, np.add.reduce(raw) if presum else total, clamped\n",
        "    return floored / total, np.add.reduce(raw) if presum else total, 0\n",
        [CONTRACT + "test_a_non_finite_extra_fails_the_run"],
    ),
    "correction_diagonal flips its sign": (
        KERNELS,
        "        return correction_sign * 0.5 * levels**2 / beta**2\n",
        "        return -correction_sign * 0.5 * levels**2 / beta**2\n",
        [ZAKAI_TESTS + "TestGamma::test_drift_matrix_structure"],
    ),
    "check_run has no clamp budget": (
        KERNELS,
        "    if run.clamps > CLAMP_FAILURE_FRACTION * replica_steps:\n",
        "    if False:\n",
        [CONTRACT + "test_an_overflowing_run_fails_without_numpy_warnings[telegraph-ito-kept]"],
    ),
    "raise_faults has no pre-sum guard": (
        KERNELS,
        "    if not presum_max_dev <= PRESUM_TOLERANCE:  # NaN fails too\n",
        "    if False:\n",
        [CONTRACT + "test_presum_guard_covers_every_step"],
    ),
    "on_simplex tests nonnegativity only": (
        KERNELS,
        "    return bool((probs >= 0).all() and (abs(_row_sums(probs) - 1.0) <= SIMPLEX_TOLERANCE).all())\n",
        "    return bool((probs >= 0).all())\n",
        [CONTRACT + "test_rows_off_the_simplex_fail_the_run"],
    ),
    "run_steps keeps the last block's pre-sum maximum only": (
        KERNELS,
        "                presum_max = devs[1:].max(initial=presum_max)\n",
        "                presum_max = devs[1:].max(initial=0.0)\n",
        # a run_report.json records presum_max_dev
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests"],
    ),
    "the pre-sum fold counts the carried row": (
        KERNELS,
        "                devs[0] = presum_total\n",
        "                devs[0] += presum_total\n",
        [CONTRACT + "test_a_run_resumed_from_its_state_is_the_whole_run[wonham-ito-block-middle]"],
    ),
    "the pre-sum fold fails an empty block": (
        KERNELS,
        "                presum_max = devs[1:].max(initial=presum_max)\n",
        "                presum_max = np.maximum(presum_max, devs[1:].max())\n",
        [CONTRACT + "test_an_empty_block_adds_nothing[wonham-ito-0-between]"],
    ),
    "run_steps ends on the last step's raw total": (
        KERNELS,
        "    state = (array, total) if simplex else array\n",
        "    state = (array, raw_total) if simplex else array\n",
        [CONTRACT + "test_a_run_resumed_from_its_state_is_the_whole_run[zakai-ito-block-middle]"],
    ),
    "check_run joins the first block's clamps only": (
        KERNELS,
        "                      clamps=sum(r.clamps for r in runs),\n",
        "                      clamps=runs[0].clamps,\n",
        ["tests/test_oracle.py::TestBlockJoin::test_a_failing_block_fails_as_the_one_batch"],
    ),
    "wonham-ito's pre-sum ignores the floor": (
        KERNELS,
        "    return floored / total, np.add.reduce(raw) if presum else total, clamped\n",
        "    return floored / total, total, clamped\n",
        [CONTRACT + "test_clamps_are_counted_and_the_budget_holds"],
    ),
    "the log step does not shift": (
        KERNELS,
        "        return updated - np.maximum.reduce(updated), 0\n",
        "        return updated, 0\n",
        [ZAKAI_TESTS + "TestLogStep::test_every_theta_row_has_max_zero"],
    ),
    # -- every run checks each block once, and floors a failing block again
    "the block check ignores the sums": (
        KERNELS,
        "                if not ((states[1:last + 1] > 0).all() and (sums[1:last + 1] > 0).all()):\n",
        "                if not (states[1:last + 1] > 0).all():\n",
        [CONTRACT + "test_the_block_check_reads_the_sums"],
    ),
    "a failed block keeps its unfloored rows": (
        KERNELS,
        "                if not ((states[1:last + 1] > 0).all() and (sums[1:last + 1] > 0).all()):\n",
        "                if False:\n",
        [CONTRACT + "test_a_clamping_block_of_a_kept_run_is_floored[zakai-ito-block-middle-7]"],
    ),
    "the second pass starts from the block's last row": (
        KERNELS,
        "                    array = start  # the block again, each step floored\n",
        "",
        [CONTRACT + "test_a_clamping_block_of_a_kept_run_is_floored[wonham-ito-block-middle-7]"],
    ),
    "the block check skips the block's last row": (
        KERNELS,
        "                if not ((states[1:last + 1] > 0).all() and (sums[1:last + 1] > 0).all()):\n",
        "                if not ((states[1:last] > 0).all() and (sums[1:last] > 0).all()):\n",
        [CONTRACT + "test_a_clamping_block_of_a_kept_run_is_floored[gamma-block-last-7]"],
    ),
    "a run without consume never steps a failing block again": (
        KERNELS,
        "                if not ((states[1:last + 1] > 0).all() and (sums[1:last + 1] > 0).all()):\n",
        "                if consume is not None and not ((states[1:last + 1] > 0).all()\n"
        "                                                and (sums[1:last + 1] > 0).all()):\n",
        [CONTRACT + "test_a_run_without_history_ends_on_the_last_kept_row[wonham-ito-unkept]"],
    ),
    "the fallback does not write the block's states": (
        KERNELS,
        "                        states[i], sums[i] = array, raw_total\n",
        "                        sums[i] = raw_total\n",
        [CONTRACT + "test_a_clamping_block_of_a_kept_run_is_floored[zakai-ito-block-middle-7]"],
    ),
    # -- the start: the model's law, as each kernel holds its state
    "_Unnormalized.start returns initial_dist instead of start_weights": (
        KERNELS,
        "        return self.model.start_weights, 0.0\n",
        "        return self.model.initial_dist, 0.0\n",
        [ZAKAI_TESTS + "TestInit::test_a_run_from_a_law_with_a_zero_starts_from_the_floored_weights"],
    ),
    "LogDomain.start drops its max shift": (
        KERNELS,
        "        return theta - theta.max()\n",
        "        return theta\n",
        [ZAKAI_TESTS + "TestLogStep::test_every_theta_row_has_max_zero"],
    ),
    "run_trajectory ignores a given initial": (
        HARNESS,
        "    if initial is not None:\n",
        "    if False:\n",
        ["tests/test_harness.py::TestConfig::test_run_trajectory_starts_from_the_model_only"],
    ),
    "check_scalars skips log_normalizer": (
        KERNELS,
        "    if not (is_real(log_normalizer) and math.isfinite(log_normalizer)):\n",
        "    if False:\n",
        ["tests/test_harness.py::test_state_rejects_bad_scalar"],
    ),
    "check_run's replica-steps ignore R": (
        KERNELS,
        "    replica_steps = run.n_steps * (run.probs[0].size // run.probs.shape[-1])\n",
        "    replica_steps = run.n_steps\n",
        [CONTRACT + "test_clamps_are_counted_and_the_budget_holds[wonham-ito-batch-kept-up]"],
    ),
    "run_steps takes a batch's pre-sum total from its least replica": (
        KERNELS,
        "                      float(np.max(presum_total)), extras, nonfinite, off_simplex, state)\n",
        "                      float(np.min(presum_total)), extras, nonfinite, off_simplex, state)\n",
        [CONTRACT + "test_the_rows_of_a_batch_are_separate_runs"],
    ),
    "faults skips the extras": (
        KERNELS,
        "    return (not all(np.isfinite(v).all() for v in (probs, *extras.values())),\n",
        "    return (not np.isfinite(probs).all(),\n",
        [CONTRACT + "test_a_non_finite_extra_fails_the_run"],
    ),
    "step_once skips the fault check": (
        KERNELS,
        "    raise_faults(kernel.scheme, run.nonfinite, run.off_simplex, run.presum_max_dev)\n"
        "    return run.state, run.clamps\n",
        "    return run.state, run.clamps\n",
        [CONTRACT + "test_a_public_step_refuses_another_k_and_fails_as_a_run_does"],
    ),
    "the telegraph upper clamp is not counted": (
        KERNELS,
        "        return 1.0, 1\n",
        "        return 1.0, 0\n",
        [CONTRACT + "test_an_overflowing_run_fails_without_numpy_warnings[telegraph-ito-kept]"],
    ),
    "the public unnormalized step drops log(total)": (
        "src/jumpfilter/zakai.py",
        "log_normalizer=float(log_normalizer)",
        "log_normalizer=float(state.log_normalizer)",
        [CONTRACT + "test_each_public_step_is_its_drive_row_bitwise[zakai-ito]"],
    ),
    "wonham_step skips its K check": (
        WONHAM,
        "    check_state_size(len(state.probs), model)\n    kernel = WonhamIto(",
        "    kernel = WonhamIto(",
        [CONTRACT + "test_a_public_step_refuses_another_k_and_fails_as_a_run_does[wonham-ito]"],
    ),
    "a ValueError exits 1": (
        CLI,
        "    except (ValueError, OSError) as exc:\n",
        "    except OSError as exc:\n",
        ["tests/test_cli_contract.py::test_cli_exits_0_2_or_3_without_warnings"],
    ),
    "an inconclusive adjudication exits 0": (
        CLI,
        "                return EXIT_QUALITY\n",
        "                return EXIT_OK\n",
        ["tests/test_cli_contract.py::test_adjudicate_exits_3_exactly_when_a_verdict_is_inconclusive"],
    ),
    # -- the CLI's exit-code table
    "_number lets NaN and inf through": (
        HARNESS,
        "    if not 0 < number < math.inf:\n",
        "    if number <= 0:\n",
        [EXIT_CODE + "[beta=nan]", EXIT_CODE + "[T=inf]"],
    ),
    "_number truncates a fractional integer": (
        HARNESS,
        "        if real and (isinstance(value, numbers.Integral) or float(value).is_integer()):\n",
        "        if real:\n",
        [EXIT_CODE + "[correction_sign=-1.9]", EXIT_CODE + "[master_seed=0.9]"],
    ),
    "_number takes bools": (
        HARNESS,
        "    real = is_real(value)\n",
        "    real = is_real(value) or isinstance(value, bool)\n",
        [EXIT_CODE + "[T=True]", EXIT_CODE + "[master_seed=False]"],
    ),
    "a config skips check_jump_budget": (
        HARNESS,
        "        check_jump_budget(self.model, self.horizon)\n",
        "",
        [EXIT_CODE + "[jump-budget]"],
    ),
    "json_fields skips the unknown-key check": (
        CHAIN,
        "    if unknown:\n",
        "    if False:\n",
        [EXIT_CODE + "[unknown-key]", EXIT_CODE + "[unknown-key-of-model]"],
    ),
    "json_fields skips the missing-key check": (
        CHAIN,
        "    if missing:\n",
        "    if False:\n",
        [EXIT_CODE + "[missing-key]", EXIT_CODE + "[missing-key-of-model]"],
    ),
    "json_object lets a RecursionError through": (
        CHAIN,
        "    except RecursionError:\n",
        "    except ZeroDivisionError:\n",
        [EXIT_CODE + "[nested]"],
    ),
    "model_from_json skips its entry-type check": (
        CHAIN,
        "        if not all(is_real(x) for x in entries):\n",
        "        if False:\n",
        [EXIT_CODE + "[object-initial]"],
    ),
    "a config takes an empty out_dir": (
        HARNESS,
        '        if self.out_dir == "":\n',
        "        if False:\n",
        [EXIT_CODE + "[empty-out-arg]", EXIT_CODE + "[empty-out-dir]"],
    ),
    "a config takes an out_dir of any type": (
        HARNESS,
        "        if not isinstance(self.out_dir, (str, os.PathLike)):\n",
        "        if False:\n",
        [EXIT_CODE + "[out-dir-list]"],
    ),
    "_kernel skips the unknown-scheme check": (
        HARNESS,
        "    if scheme not in SCHEMES:\n",
        "    if False:\n",
        [EXIT_CODE + "[unknown-scheme]"],
    ),
    "run_predict skips check_horizon": (
        HARNESS,
        "    for h in horizons:\n        check_horizon(h)\n",
        "",
        [EXIT_CODE + "[horizons-before-a-failing-filter]"],
    ),
    "_committed leaves its temporary files": (
        HARNESS,
        "        for path in temps.values():\n            path.unlink(missing_ok=True)\n",
        "",
        [EXIT_CODE + "[instability]", EXIT_CODE + "[log-from-a-point-mass]"],
    ),
    "main maps FilterInstabilityError to exit 2": (
        CLI,
        '        print(f"run failed: {exc}", file=sys.stderr)\n        return EXIT_QUALITY\n',
        '        print(f"run failed: {exc}", file=sys.stderr)\n        return EXIT_VALIDATION\n',
        [EXIT_CODE + "[huge-level-gamma]", EXIT_CODE + "[instability]"],
    ),
    "main drops OSError from its catch": (
        CLI,
        "    except (ValueError, OSError) as exc:\n",
        "    except ValueError as exc:\n",
        [EXIT_CODE + "[missing-config]", EXIT_CODE + "[out-under-a-file]"],
    ),
    "run_convergence skips the halvings budget": (
        HARNESS,
        "    if _step_count(config.horizon, config.dt) * 2**halvings > STEP_BUDGET:\n",
        "    if False:\n",
        [EXIT_CODE + "[halvings-20]", EXIT_CODE + "[halvings-2000]"],
    ),
    # -- memory: a filter and a kept history hold what their output needs
    "the filter's tables keep every block's probabilities": (
        HARNESS,
        "        hi = lo + len(probs)\n",
        '        self.__dict__.setdefault("kept", []).append(probs.copy())\n'
        "        hi = lo + len(probs)\n",
        ["tests/test_harness.py::test_filter_memory_does_not_grow_with_the_run"],
    ),
    "run_history keeps a Python tuple per step": (
        KERNELS,
        "    kept = {}\n\n    def keep(lo, _dy, probs, extras):\n",
        "    kept, trail = {}, []\n\n    def keep(lo, _dy, probs, extras):\n"
        "        trail.extend(map(tuple, probs.tolist()))\n",
        ["tests/test_harness.py::test_run_history_peaks_near_its_output"],
    ),
    # -- a batch's rows are separate runs
    "run_steps counts no clamps in a batch": (
        KERNELS,
        "                        states[i], sums[i] = array, raw_total\n                        clamps += clamped\n",
        "                        states[i], sums[i] = array, raw_total\n                        clamps += 0 if batch else clamped\n",
        ["tests/test_oracle.py::TestBlockJoin::test_a_failing_block_fails_as_the_one_batch",
         CONTRACT + "test_the_rows_of_a_batch_are_separate_runs"],
    ),
    "run_steps hands back a batch's final row strided": (
        KERNELS,
        '    probs = np.array(probs[-1:], order="C")\n',
        "    probs = probs[-1:]\n",
        [CONTRACT + "test_the_rows_of_a_batch_are_separate_runs"],
    ),
    "run_steps tiles a batch's state again": (
        KERNELS,
        "            if np.ndim(array) == 1 and np.ndim(total) == 0:  # a start: R copies of it\n",
        "            if True:\n",
        [CONTRACT + "test_a_run_resumed_from_its_state_is_the_whole_run[wonham-ito-batch-326]"],
    ),
    "run_steps takes a batch state of another R": (
        KERNELS,
        "            elif not np.shape(array)[1:] == np.shape(total) == (replicas,):\n",
        "            elif False:\n",
        [CONTRACT + "test_a_batch_takes_back_only_a_state_of_its_shape"],
    ),
    # -- prediction: the transition semigroup and its long-horizon law
    "the uniformization series stops early": (
        CHAIN,
        "    while total < 1.0 - UNIFORMIZATION_TAIL:\n",
        "    while total < 0.999:\n",
        ["tests/test_chain.py::TestTransitionMatrix::test_semigroup_property"],
    ),
    "the squaring loop does not square": (
        CHAIN,
        "        out = out @ out\n",
        "        out = out\n",
        ["tests/test_chain.py::TestTransitionMatrix::test_long_horizon_uses_squaring"],
    ),
    "predict transposes the transition matrix": (
        WONHAM,
        "    return state.probs @ transition_matrix(model, h)\n",
        "    return transition_matrix(model, h) @ state.probs\n",
        ["tests/test_wonham.py::TestPredict::test_long_horizon_reaches_stationary"],
    ),
    "transition_matrix at h=0 is not the identity": (
        CHAIN,
        "        return np.eye(k)\n",
        "        return np.full((k, k), 1.0 / k)\n",
        ["tests/test_chain.py::TestTransitionMatrix::test_zero_horizon_is_identity"],
    ),
    # -- a real number and a count: numpy's too, never a bool
    "is_real takes bools": (
        CHAIN,
        "    return isinstance(value, numbers.Real) and not isinstance(value, bool)\n",
        "    return isinstance(value, numbers.Real)\n",
        ["tests/test_harness.py::test_state_rejects_bad_scalar[FilterState-t-True]",
         "tests/test_wonham.py::TestPredict::test_horizon_must_be_a_nonnegative_real_number[True]"],
    ),
    "is_count takes bools": (
        CHAIN,
        "    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0\n",
        "    return isinstance(value, numbers.Integral) and value >= 0\n",
        ["tests/test_signalpath.py::test_coarsen_requires_divisible_factor[True]",
         "tests/test_harness.py::test_state_rejects_bad_scalar[FilterState-clamps-True]"],
    ),
    "check_scalars takes any t": (
        KERNELS,
        "    if not (is_real(t) and 0 <= t < math.inf):\n",
        "    if not 0 <= t < math.inf:\n",
        ["tests/test_harness.py::test_state_rejects_bad_scalar[UnnormalizedState-t-True]"],
    ),
    "check_horizon takes any h": (
        CHAIN,
        "    if not (is_real(h) and 0 <= h < math.inf):\n",
        "    if not 0 <= h < math.inf:\n",
        ["tests/test_wonham.py::TestPredict::test_horizon_must_be_a_nonnegative_real_number[True]"],
    ),
    "TelegraphState takes any q in range": (
        WONHAM,
        "        if not (is_real(self.q) and -1.0 <= self.q <= 1.0):  # NaN fails too\n",
        "        if not -1.0 <= self.q <= 1.0:  # NaN fails too\n",
        ["tests/test_wonham.py::TestTelegraphSteps::test_q_must_be_a_number[True]"],
    ),
    "pathspace_expectation takes any max_truncation": (
        "src/jumpfilter/oracle.py",
        "    if not (is_real(max_truncation) and 0 <= max_truncation <= 1):\n",
        "    if not 0 <= max_truncation <= 1:\n",
        ["tests/test_oracle.py::TestPathspace::test_counts_must_be_integers_in_range[max_truncation-True]"],
    ),
    "coarsen takes a factor that is not a count": (
        SIGNALPATH,
        "    if not (is_count(factor) and factor >= 1 and grid.n_steps % factor == 0):\n",
        "    if not (factor >= 1 and grid.n_steps % factor == 0):\n",
        ["tests/test_signalpath.py::test_coarsen_requires_divisible_factor[2.0]"],
    ),
    # -- the files a command writes, pinned by their digests
    "the trajectory table calls its mean column mean": (
        HARNESS,
        '"xbar",\n',
        '"mean",\n',
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests[default]"],
    ),
    "the filter's y restarts at each block": (
        HARNESS,
        "        self.y = y[-1]\n",
        "        self.y = 0.0\n",
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests[7-row]"],
    ),
    "the run report leaves out the sign variant": (
        HARNESS,
        '        "sign_variant": config.sign_variant,\n',
        "",
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests[default]"],
    ),
    "simulate writes every block but the last": (
        SIGNALPATH,
        "        for block in blocks:\n            hi = lo + block.n_steps\n",
        "        for block in list(blocks)[:-1]:\n            hi = lo + block.n_steps\n",
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests[default]"],
    ),
    "simulate draws its noise from an unseeded stream": (
        HARNESS,
        "                            derive_rng(seed, 0, ROLE_NOISE))\n",
        "                            np.random.default_rng())\n",
        ["tests/test_golden_outputs.py::test_cli_outputs_match_golden_digests[default]"],
    ),
    "the CLI module does nothing when run": (
        CLI,
        "    raise SystemExit(main())\n",
        "    pass\n",
        ["tests/test_fanout.py::test_runs_pinned_to_one_cpu_write_the_same_bytes"],
    ),
    # -- outputs do not depend on the CPU count
    "fan_out returns the results in the order of its children": (
        "src/jumpfilter/fanout.py",
        "    return [results[index] for index in range(n)]\n",
        "    return list(results.values())\n",
        ["tests/test_fanout.py::test_runs_pinned_to_one_cpu_write_the_same_bytes"],
    ),
    # -- one home per public name
    "wonham.__all__ lists step_once": (
        WONHAM,
        '    "FilterState",\n',
        '    "FilterState",\n    "step_once",\n',
        ["tests/test_startup.py::test_each_public_name_has_one_home"],
    ),
    # -- the tools: the A/B record, and this table's runner
    "the A/B runtime probe reports the affinity alone": (
        "tools/ab.py",
        '"usable_cpus": fanout.usable_cpus()',
        '"usable_cpus": len(__import__("os").sched_getaffinity(0))',
        ["tests/test_ab.py::test_the_runtime_probe_reports_the_cpus_the_fan_out_uses"],
    ),
    "the A/B verdict counts a gain when the change fails more operations": (
        "tools/ab.py",
        '    claimable = s["pairs"] >= MIN_PAIRS and not more_failed\n',
        '    claimable = s["pairs"] >= MIN_PAIRS\n',
        ["tests/test_ab.py::test_each_metric_gets_the_verdict_of_its_pairs"],
    ),
    "the A/B verdict counts a gain from fewer than 10 pairs": (
        "tools/ab.py",
        '    claimable = s["pairs"] >= MIN_PAIRS and not more_failed\n',
        "    claimable = not more_failed\n",
        ["tests/test_ab.py::test_each_metric_gets_the_verdict_of_its_pairs[gain-from-4-pairs]"],
    ),
    "the A/B verdict is unresolved even where every change run is better": (
        "tools/ab.py",
        '    if s["parent_iqr"] > allowed and not beats_every_run:\n',
        '    if s["parent_iqr"] > allowed:\n',
        ["tests/test_ab.py::test_each_metric_gets_the_verdict_of_its_pairs"],
    ),
    "mutate kills a row on any failing exit code": (
        "tools/mutate.py",
        "        return run(copy, tests) == 1\n",
        "        return run(copy, tests) != 0\n",
        ["tests/test_mutate.py::test_only_a_failed_test_kills"],
    ),
    "mutate takes an old text that occurs more than once": (
        "tools/mutate.py",
        "    if count != 1:\n",
        "    if count == 0:\n",
        ["tests/test_mutate.py::test_an_old_text_must_occur_exactly_once"],
    ),
}
