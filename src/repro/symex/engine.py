"""The symbolic executor for SmartApps (paper §V-B).

The executor performs a depth-first exploration of every execution path
(SmartApps are small, so path explosion is not a concern — the paper
makes the same observation).  Entry points are the lifecycle methods
``installed``/``updated``; along entry-point paths ``subscribe`` calls
register triggers and scheduling APIs register periodic rules.  Event
handlers are then explored with a fresh symbolic event; each
capability-protected command or sensitive platform API encountered is a
sink that terminates one trigger-condition-action rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.capabilities.registry import find_command, is_sink_command
from repro.lang import ast_nodes as ast
from repro.rules.model import Action, Condition, DataConstraint, Rule, RuleSet, Trigger
from repro.symex import api_models
from repro.symex.state import PathState
from repro.symex.values import (
    BinExpr,
    CallExpr,
    Concat,
    Const,
    DeviceAttr,
    DeviceRef,
    EventAttr,
    EventValue,
    ListVal,
    LocalVar,
    LocationAttr,
    NotExpr,
    StateVal,
    SymExpr,
    TimeVal,
    UserInput,
    conjoin,
    negate,
)

# Hard ceilings: SmartApps are tiny, so hitting these indicates a bug or
# an adversarial app rather than a legitimate automation.
_MAX_STATES = 2048
_MAX_CALL_DEPTH = 24
_MAX_LOOP_UNROLL = 3

# Non-device input types rendered as configuration UI elements.
_VALUE_INPUT_TYPES = {
    "number", "decimal", "text", "string", "bool", "boolean", "enum",
    "time", "phone", "contact", "email", "password", "mode", "hub",
    "icon",
}


class SymbolicExecutionError(Exception):
    """Raised when an app cannot be analysed (paper §VIII-B's
    pre-fix failures surface this way in strict mode)."""


@dataclass(frozen=True, slots=True)
class Subscription:
    """One ``subscribe()`` registration discovered at an entry point."""

    subject: str                       # "device" | "location" | "app"
    device: DeviceRef | None
    attribute: str
    value_filter: str | None
    handler: str


@dataclass(frozen=True, slots=True)
class ScheduledEntry:
    """One scheduling-API registration discovered at an entry point."""

    method: str
    attribute: str
    when: float | SymExpr
    period: float | SymExpr


# Sentinel receivers for platform objects. They are SymExpr subclasses so
# they can live in the environment, but they never appear inside rules.
@dataclass(frozen=True, slots=True)
class _Sentinel(SymExpr):
    kind: str


_EVENT = _Sentinel("event")
_STATE = _Sentinel("state")
_LOCATION = _Sentinel("location")
_APP = _Sentinel("app")
_LOG = _Sentinel("log")
_MATH = _Sentinel("math")
_SETTINGS = _Sentinel("settings")


@dataclass(slots=True)
class ExtractionContext:
    """Mutable extraction-wide bookkeeping."""

    subscriptions: dict[tuple, Subscription] = field(default_factory=dict)
    scheduled: dict[tuple, ScheduledEntry] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


class SymbolicExecutor:
    """Extracts the automation rules of one SmartApp."""

    def __init__(
        self,
        module: ast.Module,
        app_name: str = "",
        strict_device_types: bool = False,
    ) -> None:
        self._module = module
        self._app_name = app_name or self._infer_app_name() or "UnnamedApp"
        self._strict = strict_device_types
        self._inputs: dict[str, SymExpr] = {}
        self._defaults: dict[str, object] = {}
        self._ctx = ExtractionContext()
        self._rules: list[Rule] = []
        self._rule_keys: set = set()
        self._current_trigger: Trigger | None = None
        self._current_subscription: Subscription | None = None
        self._state_budget = _MAX_STATES

    # ------------------------------------------------------------------
    # Public API

    def run(self) -> RuleSet:
        """Execute the app symbolically and return its rule set."""
        self._collect_inputs()
        self._run_entry_points()
        for subscription in list(self._ctx.subscriptions.values()):
            self._run_handler(subscription)
        for entry in list(self._ctx.scheduled.values()):
            self._run_scheduled(entry)
        ruleset = RuleSet(
            app_name=self._app_name, rules=list(self._rules), inputs=dict(self._inputs)
        )
        return ruleset

    @property
    def warnings(self) -> list[str]:
        return list(self._ctx.warnings)

    @property
    def app_name(self) -> str:
        return self._app_name

    # ------------------------------------------------------------------
    # Setup passes

    def _infer_app_name(self) -> str | None:
        for stmt in self._module.top_level:
            if not isinstance(stmt, ast.ExprStmt):
                continue
            call = stmt.expr
            if isinstance(call, ast.MethodCall) and call.name == "definition":
                name_expr = call.named_args().get("name")
                if isinstance(name_expr, ast.StringLiteral):
                    return name_expr.value
        return None

    def _collect_inputs(self) -> None:
        """Automatic symbolic input identification: every ``input``
        method call anywhere in the app (paper §V-B)."""
        for node in self._walk_everything():
            if isinstance(node, ast.MethodCall) and node.name == "input":
                self._register_input(node)

    def _walk_everything(self):
        for stmt in self._module.top_level:
            yield from ast.walk(stmt)
        for method in self._module.methods.values():
            yield from ast.walk(method)

    def _register_input(self, call: ast.MethodCall) -> None:
        positional = call.positional_args()
        if len(positional) < 2:
            return
        name_expr, type_expr = positional[0], positional[1]
        if not isinstance(name_expr, ast.StringLiteral):
            return
        if not isinstance(type_expr, ast.StringLiteral):
            return
        name, input_type = name_expr.value, type_expr.value
        named = call.named_args()
        multiple = isinstance(named.get("multiple"), ast.BoolLiteral) and named[
            "multiple"
        ].value
        if input_type.startswith("capability."):
            self._inputs[name] = DeviceRef(name, input_type, multiple)
        elif input_type.startswith("device."):
            # Non-standard device-type inputs (paper §VIII-B: Feed My Pet,
            # Sleepy Time).  In strict mode this reproduces the pre-fix
            # extraction failure.
            if self._strict:
                raise SymbolicExecutionError(
                    f"unsupported non-standard device type {input_type!r} "
                    f"for input {name!r}"
                )
            self._inputs[name] = DeviceRef(name, input_type, multiple)
        elif input_type in _VALUE_INPUT_TYPES:
            self._inputs[name] = UserInput(name, input_type)
        else:
            self._ctx.warnings.append(
                f"input {name!r} has unknown type {input_type!r}; treating "
                "as an opaque user input"
            )
            self._inputs[name] = UserInput(name, input_type)
        default = call.named_args().get("defaultValue")
        if isinstance(default, (ast.IntLiteral, ast.DecimalLiteral, ast.StringLiteral,
                                ast.BoolLiteral)):
            self._defaults[name] = default.value

    # ------------------------------------------------------------------
    # Entry points and handlers

    def _run_entry_points(self) -> None:
        for entry in ("installed", "updated"):
            method = self._module.method(entry)
            if method is None:
                continue
            self._current_trigger = Trigger(subject="install", attribute="lifecycle")
            self._current_subscription = None
            state = self._fresh_state()
            self._exec_block(method.body, state)
        self._current_trigger = None

    def _run_handler(self, subscription: Subscription) -> None:
        method = self._module.method(subscription.handler)
        if method is None:
            self._ctx.warnings.append(
                f"subscription handler {subscription.handler!r} is not defined"
            )
            return
        self._current_subscription = subscription
        self._current_trigger = Trigger(
            subject=(
                subscription.device.name
                if subscription.device is not None
                else subscription.subject
            ),
            attribute=subscription.attribute,
            constraint=(
                BinExpr("==", EventValue(), Const(subscription.value_filter))
                if subscription.value_filter is not None
                else None
            ),
            device=subscription.device,
        )
        state = self._fresh_state()
        if method.params:
            state.env[method.params[0].name] = _EVENT
        self._state_budget = _MAX_STATES
        self._exec_block(method.body, state)
        self._current_subscription = None
        self._current_trigger = None

    def _run_scheduled(self, entry: ScheduledEntry) -> None:
        method = self._module.method(entry.method)
        if method is None:
            self._ctx.warnings.append(
                f"scheduled method {entry.method!r} is not defined"
            )
            return
        self._current_subscription = None
        self._current_trigger = Trigger(subject="time", attribute=entry.attribute)
        state = self._fresh_state()
        state.when = entry.when
        state.period = entry.period
        self._state_budget = _MAX_STATES
        self._exec_block(method.body, state)
        self._current_trigger = None

    def _fresh_state(self) -> PathState:
        return PathState()

    # ------------------------------------------------------------------
    # Statement execution

    def _exec_block(self, block: ast.Block, state: PathState) -> list[PathState]:
        states = [state]
        for stmt in block.statements:
            next_states: list[PathState] = []
            for current in states:
                if current.halted:
                    next_states.append(current)
                    continue
                next_states.extend(self._exec_stmt(stmt, current))
            states = self._cap_states(next_states)
        return states

    def _cap_states(self, states: list[PathState]) -> list[PathState]:
        if len(states) > self._state_budget:
            self._ctx.warnings.append(
                f"path explosion capped at {self._state_budget} states"
            )
            return states[: self._state_budget]
        return states

    def _exec_stmt(self, stmt: ast.Stmt, state: PathState) -> list[PathState]:
        if isinstance(stmt, ast.ExprStmt):
            return [st for st, _val in self._eval(stmt.expr, state)]
        if isinstance(stmt, ast.VarDecl):
            return self._exec_var_decl(stmt, state)
        if isinstance(stmt, ast.Assignment):
            return self._exec_assignment(stmt, state)
        if isinstance(stmt, ast.IfStmt):
            return self._exec_if(stmt, state)
        if isinstance(stmt, ast.SwitchStmt):
            return self._exec_switch(stmt, state)
        if isinstance(stmt, ast.ForInStmt):
            return self._exec_for(stmt, state)
        if isinstance(stmt, ast.WhileStmt):
            return self._exec_while(stmt, state)
        if isinstance(stmt, ast.ReturnStmt):
            return self._exec_return(stmt, state)
        if isinstance(stmt, ast.BreakStmt):
            state.broke = True
            return [state]
        if isinstance(stmt, ast.LabeledStmt):
            return [st for st, _val in self._eval(stmt.value, state)]
        raise SymbolicExecutionError(
            f"unsupported statement {type(stmt).__name__} at {stmt.location}"
        )

    def _exec_var_decl(self, stmt: ast.VarDecl, state: PathState) -> list[PathState]:
        if stmt.initializer is None:
            state.env[stmt.name] = Const(None)
            return [state]
        results = []
        for st, value in self._eval(stmt.initializer, state):
            self._bind(st, stmt.name, value)
            results.append(st)
        return results

    def _exec_assignment(
        self, stmt: ast.Assignment, state: PathState
    ) -> list[PathState]:
        results = []
        for st, value in self._eval(stmt.value, state):
            if stmt.op in ("+=", "-="):
                current = self._read_target(stmt.target, st)
                op = stmt.op[0]
                value = self._binop(op, current, value)
            self._write_target(stmt.target, value, st)
            results.append(st)
        return results

    def _read_target(self, target: ast.Expr, state: PathState) -> SymExpr:
        pairs = self._eval(target, state)
        return pairs[0][1] if pairs else Const(None)

    def _write_target(
        self, target: ast.Expr, value: SymExpr, state: PathState
    ) -> None:
        if isinstance(target, ast.Identifier):
            self._bind(state, target.name, value)
            return
        if isinstance(target, ast.PropertyAccess):
            receiver_pairs = self._eval(target.receiver, state)
            receiver = receiver_pairs[0][1] if receiver_pairs else Const(None)
            if receiver is _STATE:
                state.state_store[target.name] = value
                return
            if receiver is _LOCATION and target.name == "mode":
                self._emit_sink_action(
                    state,
                    Action(subject="location", command="setLocationMode",
                           params=(value,), when=state.when, period=state.period),
                )
                return
            self._ctx.warnings.append(
                f"discarding write to unmodeled property {target.name!r}"
            )
            return
        if isinstance(target, ast.IndexAccess):
            receiver_pairs = self._eval(target.receiver, state)
            receiver = receiver_pairs[0][1] if receiver_pairs else Const(None)
            index_pairs = self._eval(target.index, state)
            index = index_pairs[0][1] if index_pairs else Const(None)
            if receiver is _STATE and isinstance(index, Const):
                state.state_store[str(index.value)] = value
                return
            self._ctx.warnings.append("discarding write through index access")
            return
        self._ctx.warnings.append(
            f"discarding write to unsupported target {type(target).__name__}"
        )

    def _bind(self, state: PathState, name: str, value: SymExpr) -> None:
        """Bind a local: atoms propagate, composites become LocalVars
        whose definitions are recorded as data constraints."""
        if isinstance(value, (Const, DeviceRef, EventValue, EventAttr, ListVal,
                              LocationAttr, TimeVal, StateVal, _Sentinel)):
            state.env[name] = value
            return
        version = state.versions.get(name, 0)
        state.versions[name] = version + 1
        local = LocalVar(name, version)
        state.define(local.key, value)
        state.env[name] = local

    def _exec_if(self, stmt: ast.IfStmt, state: PathState) -> list[PathState]:
        results: list[PathState] = []
        for st, condition in self._eval(stmt.condition, state):
            condition = self._as_boolean(condition)
            if isinstance(condition, Const):
                if self._truthy(condition):
                    results.extend(self._exec_block(stmt.then_block, st))
                elif stmt.else_block is not None:
                    results.extend(self._exec_block(stmt.else_block, st))
                else:
                    results.append(st)
                continue
            then_state = st.clone()
            then_state.assume(condition)
            results.extend(self._exec_block(stmt.then_block, then_state))
            else_state = st
            else_state.assume(negate(condition))
            if stmt.else_block is not None:
                results.extend(self._exec_block(stmt.else_block, else_state))
            else:
                results.append(else_state)
        return results

    def _exec_switch(self, stmt: ast.SwitchStmt, state: PathState) -> list[PathState]:
        results: list[PathState] = []
        for st, subject in self._eval(stmt.subject, state):
            negations: list[SymExpr] = []
            default_case: ast.SwitchCase | None = None
            for index, case in enumerate(stmt.cases):
                if case.match is None:
                    default_case = case
                    continue
                match_pairs = self._eval(case.match, st.clone())
                if not match_pairs:
                    continue
                branch, match_value = match_pairs[0]
                equality = self._binop("==", subject, match_value)
                if isinstance(equality, Const):
                    if not self._truthy(equality):
                        continue
                else:
                    negations.append(negate(equality))
                    branch.assume(equality)
                body = self._case_body(stmt.cases, index)
                done = self._exec_block(body, branch)
                for final in done:
                    final.broke = False
                results.extend(done)
            fallback = st
            for negation in negations:
                if not isinstance(negation, Const):
                    fallback.assume(negation)
            if default_case is not None:
                done = self._exec_block(default_case.body, fallback)
                for final in done:
                    final.broke = False
                results.extend(done)
            else:
                results.append(fallback)
        return results

    def _case_body(self, cases: list[ast.SwitchCase], index: int) -> ast.Block:
        """Concatenate fall-through case bodies until a break."""
        statements: list[ast.Stmt] = []
        for case in cases[index:]:
            statements.extend(case.body.statements)
            if case.has_break:
                break
        return ast.Block(location=cases[index].location, statements=statements)

    def _exec_for(self, stmt: ast.ForInStmt, state: PathState) -> list[PathState]:
        iterable_pairs = self._eval(stmt.iterable, state)
        results: list[PathState] = []
        for st, iterable in iterable_pairs:
            results.extend(
                self._iterate(stmt.variable, iterable, stmt.body, st)
            )
        return results

    def _iterate(
        self,
        variable: str,
        iterable: SymExpr,
        body: ast.Block,
        state: PathState,
    ) -> list[PathState]:
        items: list[SymExpr]
        if isinstance(iterable, ListVal):
            items = list(iterable.items)
        elif isinstance(iterable, Const) and isinstance(iterable.value, (list, tuple)):
            items = [
                item if isinstance(item, SymExpr) else Const(item)
                for item in iterable.value
            ]
        elif isinstance(iterable, DeviceRef):
            # A multi-device input: one symbolic pass, the loop variable
            # standing for the whole group.
            items = [iterable]
        else:
            items = [iterable]
        states = [state]
        for item in items[: max(_MAX_LOOP_UNROLL, len(items))]:
            next_states = []
            for st in states:
                if st.halted:
                    next_states.append(st)
                    continue
                st.env[variable] = item
                next_states.extend(self._exec_block(body, st))
            states = self._cap_states(next_states)
        for st in states:
            st.broke = False
        return states

    def _exec_while(self, stmt: ast.WhileStmt, state: PathState) -> list[PathState]:
        states = [state]
        for _iteration in range(_MAX_LOOP_UNROLL):
            next_states: list[PathState] = []
            for st in states:
                if st.halted:
                    next_states.append(st)
                    continue
                for cond_state, condition in self._eval(stmt.condition, st):
                    condition = self._as_boolean(condition)
                    if isinstance(condition, Const):
                        if self._truthy(condition):
                            next_states.extend(
                                self._exec_block(stmt.body, cond_state)
                            )
                        else:
                            cond_state.broke = True
                            next_states.append(cond_state)
                        continue
                    loop_state = cond_state.clone()
                    loop_state.assume(condition)
                    next_states.extend(self._exec_block(stmt.body, loop_state))
                    exit_state = cond_state
                    exit_state.assume(negate(condition))
                    exit_state.broke = True
                    next_states.append(exit_state)
            states = self._cap_states(next_states)
        for st in states:
            st.broke = False
        return states

    def _exec_return(self, stmt: ast.ReturnStmt, state: PathState) -> list[PathState]:
        if stmt.value is None:
            state.returned = True
            state.return_value = Const(None)
            return [state]
        results = []
        for st, value in self._eval(stmt.value, state):
            st.returned = True
            st.return_value = value
            results.append(st)
        return results

    # ------------------------------------------------------------------
    # Expression evaluation (list-of-(state, value) protocol)

    def _eval(self, expr: ast.Expr, state: PathState) -> list[tuple[PathState, SymExpr]]:
        if isinstance(expr, ast.IntLiteral):
            return [(state, Const(expr.value))]
        if isinstance(expr, ast.DecimalLiteral):
            return [(state, Const(expr.value))]
        if isinstance(expr, ast.StringLiteral):
            return [(state, Const(expr.value))]
        if isinstance(expr, ast.BoolLiteral):
            return [(state, Const(expr.value))]
        if isinstance(expr, ast.NullLiteral):
            return [(state, Const(None))]
        if isinstance(expr, ast.GStringLiteral):
            return self._eval_gstring(expr, state)
        if isinstance(expr, ast.ListLiteral):
            return self._eval_sequence(
                expr.elements, state, lambda vals: ListVal(tuple(vals))
            )
        if isinstance(expr, ast.MapLiteral):
            return self._eval_map(expr, state)
        if isinstance(expr, ast.RangeLiteral):
            return self._eval_range(expr, state)
        if isinstance(expr, ast.Identifier):
            return [(state, self._eval_identifier(expr.name, state))]
        if isinstance(expr, ast.PropertyAccess):
            return self._eval_property(expr, state)
        if isinstance(expr, ast.IndexAccess):
            return self._eval_index(expr, state)
        if isinstance(expr, ast.MethodCall):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.ConstructorCall):
            return self._eval_constructor(expr, state)
        if isinstance(expr, ast.MethodPointer):
            return [(state, Const(expr.name))]
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, state)
        if isinstance(expr, ast.TernaryOp):
            return self._eval_ternary(expr, state)
        if isinstance(expr, ast.ElvisOp):
            return self._eval_elvis(expr, state)
        if isinstance(expr, ast.ClosureExpr):
            return [(state, Const(expr))]  # closures are called, not valued
        if isinstance(expr, ast.CastExpr):
            return self._eval(expr.value, state)
        if isinstance(expr, ast.NamedArgument):
            return self._eval(expr.value, state)
        raise SymbolicExecutionError(
            f"unsupported expression {type(expr).__name__} at {expr.location}"
        )

    def _eval_sequence(self, exprs, state, combine):
        results = [(state, [])]
        for expr in exprs:
            next_results = []
            for st, values in results:
                for st2, value in self._eval(expr, st):
                    next_results.append((st2, values + [value]))
            results = next_results
        return [(st, combine(values)) for st, values in results]

    def _eval_gstring(self, expr: ast.GStringLiteral, state):
        parts: list[ast.Expr] = []
        literals: list[object] = []
        for part in expr.parts:
            literals.append(part)
        # Evaluate embedded expressions left to right.
        embedded = [part for part in expr.parts if isinstance(part, ast.Expr)]
        results = self._eval_sequence(embedded, state, lambda vals: vals)
        out = []
        for st, values in results:
            assembled: list[SymExpr] = []
            iterator = iter(values)
            for part in expr.parts:
                if isinstance(part, ast.Expr):
                    assembled.append(next(iterator))
                else:
                    assembled.append(Const(part))
            if all(isinstance(piece, Const) for piece in assembled):
                text = "".join(str(piece.value) for piece in assembled)
                out.append((st, Const(text)))
            else:
                out.append((st, Concat(tuple(assembled))))
        return out

    def _eval_map(self, expr: ast.MapLiteral, state):
        keys = [entry.key for entry in expr.entries]
        values = [entry.value for entry in expr.entries]
        results = self._eval_sequence(keys + values, state, lambda vals: vals)
        out = []
        for st, flat in results:
            half = len(flat) // 2
            mapping = {}
            for key, value in zip(flat[:half], flat[half:]):
                key_text = key.value if isinstance(key, Const) else str(key)
                mapping[key_text] = value
            out.append((st, Const(mapping)))
        return out

    def _eval_range(self, expr: ast.RangeLiteral, state):
        results = self._eval_sequence([expr.low, expr.high], state, tuple)
        out = []
        for st, (low, high) in results:
            if (
                isinstance(low, Const)
                and isinstance(high, Const)
                and isinstance(low.value, int)
                and isinstance(high.value, int)
                and high.value - low.value <= 64
            ):
                items = tuple(Const(i) for i in range(low.value, high.value + 1))
                out.append((st, ListVal(items)))
            else:
                out.append((st, CallExpr("range", (low, high))))
        return out

    def _eval_identifier(self, name: str, state: PathState) -> SymExpr:
        if name in state.env:
            return state.env[name]
        if name in self._inputs:
            return self._inputs[name]
        if name in ("state", "atomicState"):
            return _STATE
        if name == "location":
            return _LOCATION
        if name == "app":
            return _APP
        if name == "log":
            return _LOG
        if name == "Math":
            return _MATH
        if name == "settings":
            return _SETTINGS
        if name == "params":
            return CallExpr("params")
        if name == "it":
            return Const(None)
        if name == "this":
            return _APP
        self._ctx.warnings.append(f"unknown identifier {name!r} treated as null")
        return Const(None)

    def _eval_property(self, expr: ast.PropertyAccess, state):
        out = []
        for st, receiver in self._eval(expr.receiver, state):
            out.append((st, self._property_on(receiver, expr.name, st)))
        return out

    def _property_on(self, receiver: SymExpr, name: str, state: PathState) -> SymExpr:
        if receiver is _EVENT:
            return self._event_property(name)
        if receiver is _STATE:
            return state.state_store.get(name, StateVal(name))
        if receiver is _LOCATION:
            kind = api_models.LOCATION_PROPERTIES.get(name)
            if kind == "mode":
                return LocationAttr("mode")
            if kind is None:
                self._ctx.warnings.append(
                    f"unmodeled location property {name!r}"
                )
            return LocationAttr(name)
        if receiver is _APP:
            return CallExpr(f"app.{name}")
        if receiver is _SETTINGS:
            return self._inputs.get(name, Const(None))
        if isinstance(receiver, DeviceRef):
            if name.startswith("current") and len(name) > len("current"):
                attribute = name[len("current"):]
                attribute = attribute[0].lower() + attribute[1:]
                return DeviceAttr(receiver, attribute)
            if name.startswith("latest") and len(name) > len("latest"):
                attribute = name[len("latest"):]
                attribute = attribute[0].lower() + attribute[1:]
                return DeviceAttr(receiver, attribute)
            kind = api_models.DEVICE_PROPERTIES.get(name)
            if kind == "device_id":
                return CallExpr("deviceId", (receiver,))
            if kind == "display_name":
                return CallExpr("displayName", (receiver,))
            return CallExpr(f"device.{name}", (receiver,))
        if isinstance(receiver, DeviceAttr):
            # currentState("attr").value / .numberValue style accesses.
            if name in ("value", "stringValue"):
                return receiver
            if name.endswith("Value") or name in ("date", "unit"):
                return receiver
            return CallExpr(f"attrState.{name}", (receiver,))
        if isinstance(receiver, Const) and isinstance(receiver.value, dict):
            value = receiver.value.get(name, Const(None))
            return value if isinstance(value, SymExpr) else Const(value)
        if isinstance(receiver, EventValue):
            return receiver
        if isinstance(receiver, Const) and receiver.value is None:
            return Const(None)
        return CallExpr(f"prop.{name}", (receiver,))

    def _event_property(self, name: str) -> SymExpr:
        kind = api_models.EVENT_PROPERTIES.get(name)
        subscription = self._current_subscription
        if kind in ("value", "numeric_value"):
            return EventValue()
        if kind == "attribute_name":
            if subscription is not None:
                return Const(subscription.attribute)
            return EventAttr("name")
        if kind == "device" and subscription is not None and subscription.device:
            return subscription.device
        if kind == "device_id" and subscription is not None and subscription.device:
            return CallExpr("deviceId", (subscription.device,))
        if kind == "date":
            return TimeVal("event")
        if kind == "state_change":
            return Const(True)
        if kind is None:
            self._ctx.warnings.append(f"unmodeled event property {name!r}")
        return EventAttr(name)

    def _eval_index(self, expr: ast.IndexAccess, state):
        results = self._eval_sequence([expr.receiver, expr.index], state, tuple)
        out = []
        for st, (receiver, index) in results:
            if receiver is _STATE and isinstance(index, Const):
                key = str(index.value)
                out.append((st, st.state_store.get(key, StateVal(key))))
            elif (
                isinstance(receiver, ListVal)
                and isinstance(index, Const)
                and isinstance(index.value, int)
                and 0 <= index.value < len(receiver.items)
            ):
                out.append((st, receiver.items[index.value]))
            elif isinstance(receiver, Const) and isinstance(receiver.value, dict):
                key = index.value if isinstance(index, Const) else str(index)
                value = receiver.value.get(key, Const(None))
                out.append(
                    (st, value if isinstance(value, SymExpr) else Const(value))
                )
            else:
                out.append((st, CallExpr("index", (receiver, index))))
        return out

    def _eval_binary(self, expr: ast.BinaryOp, state):
        results = self._eval_sequence([expr.left, expr.right], state, tuple)
        return [(st, self._binop(expr.op, left, right)) for st, (left, right) in results]

    def _binop(self, op: str, left: SymExpr, right: SymExpr) -> SymExpr:
        if isinstance(left, Const) and isinstance(right, Const):
            folded = self._fold(op, left.value, right.value)
            if folded is not None:
                return folded
        return BinExpr(op, left, right)

    @staticmethod
    def _fold(op: str, a, b) -> Const | None:
        try:
            if op == "+":
                if isinstance(a, str) or isinstance(b, str):
                    return Const(str(a) + str(b))
                return Const(a + b)
            if op == "-":
                return Const(a - b)
            if op == "*":
                return Const(a * b)
            if op == "/":
                return Const(a / b) if b else None
            if op == "%":
                return Const(a % b) if b else None
            if op == "**":
                return Const(a ** b)
            if op == "==":
                return Const(a == b)
            if op == "!=":
                return Const(a != b)
            if op == "<":
                return Const(a < b)
            if op == "<=":
                return Const(a <= b)
            if op == ">":
                return Const(a > b)
            if op == ">=":
                return Const(a >= b)
            if op == "&&":
                return Const(bool(a) and bool(b))
            if op == "||":
                return Const(bool(a) or bool(b))
            if op == "in":
                return Const(a in b) if isinstance(b, (list, tuple, str)) else None
        except TypeError:
            return None
        return None

    def _eval_unary(self, expr: ast.UnaryOp, state):
        out = []
        for st, operand in self._eval(expr.operand, state):
            if expr.op == "!":
                operand = self._as_boolean(operand)
                if isinstance(operand, Const):
                    out.append((st, Const(not self._truthy(operand))))
                else:
                    out.append((st, negate(operand)))
            elif expr.op == "-":
                if isinstance(operand, Const) and isinstance(operand.value, (int, float)):
                    out.append((st, Const(-operand.value)))
                else:
                    out.append((st, BinExpr("-", Const(0), operand)))
            else:  # ++/-- pre/post: numeric bump, value semantics ignored
                out.append((st, operand))
        return out

    def _eval_ternary(self, expr: ast.TernaryOp, state):
        """The paper handles ternaries by breaking each into two branches."""
        out = []
        for st, condition in self._eval(expr.condition, state):
            condition = self._as_boolean(condition)
            if isinstance(condition, Const):
                chosen = expr.if_true if self._truthy(condition) else expr.if_false
                out.extend(self._eval(chosen, st))
                continue
            true_state = st.clone()
            true_state.assume(condition)
            out.extend(self._eval(expr.if_true, true_state))
            false_state = st
            false_state.assume(negate(condition))
            out.extend(self._eval(expr.if_false, false_state))
        return out

    def _eval_elvis(self, expr: ast.ElvisOp, state):
        out = []
        for st, value in self._eval(expr.value, state):
            if isinstance(value, Const):
                if self._truthy(value):
                    out.append((st, value))
                else:
                    out.extend(self._eval(expr.fallback, st))
                continue
            # Symbolic: prefer the primary value (the fallback only covers
            # the unconfigured case, which configuration collection fills).
            out.append((st, value))
        return out

    def _eval_constructor(self, expr: ast.ConstructorCall, state):
        if expr.type_name in ("Date", "java.util.Date"):
            return [(state, TimeVal("now"))]
        results = self._eval_sequence(
            [arg for arg in expr.args if not isinstance(arg, ast.NamedArgument)],
            state,
            tuple,
        )
        return [
            (st, CallExpr(f"new.{expr.type_name}", tuple(values)))
            for st, values in results
        ]

    @staticmethod
    def _truthy(constant: Const) -> bool:
        return bool(constant.value)

    def _as_boolean(self, value: SymExpr) -> SymExpr:
        """Groovy truth: null/empty are false.  Symbolic non-boolean
        expressions are compared against null."""
        if isinstance(value, Const):
            return value
        if isinstance(value, NotExpr):
            return value
        if isinstance(value, BinExpr) and (
            value.is_comparison or value.is_logical or value.op == "in"
        ):
            return value
        if isinstance(value, (DeviceRef, ListVal)):
            return Const(True)
        return BinExpr("!=", value, Const(None))

    # ------------------------------------------------------------------
    # Calls

    def _eval_call(self, expr: ast.MethodCall, state):
        if expr.receiver is None:
            return self._eval_global_call(expr, state)
        out = []
        for st, receiver in self._eval(expr.receiver, state):
            out.extend(self._call_on(receiver, expr, st))
        return out

    def _eval_args(self, expr: ast.MethodCall, state):
        positional = [
            arg for arg in expr.args
            if not isinstance(arg, (ast.NamedArgument, ast.ClosureExpr))
        ]
        closures = [arg for arg in expr.args if isinstance(arg, ast.ClosureExpr)]
        named = {
            arg.name: arg.value
            for arg in expr.args
            if isinstance(arg, ast.NamedArgument)
        }
        results = self._eval_sequence(positional, state, lambda vals: vals)
        return results, closures, named

    def _eval_global_call(self, expr: ast.MethodCall, state):
        name = expr.name
        # Platform metadata DSL: consumed during input collection.
        if name in ("definition", "preferences", "section", "input", "page",
                    "dynamicPage", "metadata", "mappings", "path", "include",
                    "paragraph", "label", "mode", "href", "icon"):
            return [(state, Const(None))]
        if name == "subscribe":
            return self._handle_subscribe(expr, state)
        if name in api_models.NOOP_APIS:
            return [(state, Const(None))]
        if name in api_models.SCHEDULING_APIS:
            return self._handle_schedule(expr, state)
        if name in ("httpGet", "httpPost", "httpPostJson", "httpPut",
                    "httpPutJson", "httpDelete", "httpHead"):
            return self._handle_http(expr, state)
        if name in api_models.SINK_APIS:
            return self._handle_api_sink(expr, state)
        if name == "now":
            return [(state, TimeVal("now"))]
        if name in api_models.TIME_PREDICATES or name in api_models.PURE_APIS:
            results, _closures, _named = self._eval_args(expr, state)
            return [
                (st, CallExpr(name, tuple(values))) for st, values in results
            ]
        method = self._module.method(name)
        if method is not None:
            return self._inline_method(method, expr, state)
        results, closures, _named = self._eval_args(expr, state)
        if closures:
            self._ctx.warnings.append(
                f"closure argument to unmodeled function {name!r} skipped"
            )
        self._ctx.warnings.append(f"unmodeled function {name!r}")
        return [(st, CallExpr(name, tuple(values))) for st, values in results]

    def _inline_method(self, method: ast.MethodDecl, expr: ast.MethodCall, state):
        if state.call_depth >= _MAX_CALL_DEPTH:
            self._ctx.warnings.append(
                f"call depth limit reached inlining {method.name!r}"
            )
            return [(state, Const(None))]
        results, _closures, _named = self._eval_args(expr, state)
        out = []
        for st, values in results:
            call_state = st
            saved_env = dict(call_state.env)
            call_state.call_depth += 1
            for index, param in enumerate(method.params):
                if index < len(values):
                    call_state.env[param.name] = values[index]
                elif param.default is not None:
                    default_pairs = self._eval(param.default, call_state)
                    call_state.env[param.name] = (
                        default_pairs[0][1] if default_pairs else Const(None)
                    )
                else:
                    call_state.env[param.name] = Const(None)
            finished = self._exec_block(method.body, call_state)
            for final in finished:
                value = final.return_value if final.returned else Const(None)
                final.returned = False
                final.return_value = None
                final.broke = False
                final.call_depth -= 1
                # Callee locals go out of scope; restore the caller's env.
                final.env = dict(saved_env)
                out.append((final, value if value is not None else Const(None)))
        return out

    def _handle_subscribe(self, expr: ast.MethodCall, state):
        positional = expr.positional_args()
        if len(positional) < 2:
            return [(state, Const(None))]
        target = positional[0]
        handler_name = self._method_name_of(positional[-1])
        attribute_expr = positional[1] if len(positional) >= 3 else None
        attribute = None
        value_filter = None
        if attribute_expr is not None:
            if isinstance(attribute_expr, ast.StringLiteral):
                attribute = attribute_expr.value
            else:
                pairs = self._eval(attribute_expr, state)
                if pairs and isinstance(pairs[0][1], Const):
                    attribute = str(pairs[0][1].value)
        if attribute is not None and "." in attribute:
            attribute, value_filter = attribute.split(".", 1)
        if handler_name is None:
            self._ctx.warnings.append("subscribe() with unresolvable handler")
            return [(state, Const(None))]
        subject = "device"
        device: DeviceRef | None = None
        if isinstance(target, ast.Identifier) and target.name == "location":
            subject = "location"
            attribute = attribute or "mode"
        elif isinstance(target, ast.Identifier) and target.name == "app":
            subject = "app"
            attribute = attribute or "appTouch"
        else:
            pairs = self._eval(target, state)
            value = pairs[0][1] if pairs else Const(None)
            if isinstance(value, DeviceRef):
                device = value
            elif isinstance(value, ListVal) and value.items and isinstance(
                value.items[0], DeviceRef
            ):
                device = value.items[0]
            else:
                self._ctx.warnings.append(
                    "subscribe() target did not resolve to a device"
                )
                return [(state, Const(None))]
        if attribute is None:
            attribute = "unknown"
        subscription = Subscription(
            subject=subject,
            device=device,
            attribute=attribute,
            value_filter=value_filter,
            handler=handler_name,
        )
        key = (
            subject,
            device.name if device else None,
            attribute,
            value_filter,
            handler_name,
        )
        self._ctx.subscriptions.setdefault(key, subscription)
        return [(state, Const(None))]

    @staticmethod
    def _method_name_of(expr: ast.Expr) -> str | None:
        if isinstance(expr, ast.Identifier):
            return expr.name
        if isinstance(expr, ast.StringLiteral):
            return expr.value
        if isinstance(expr, ast.MethodPointer):
            return expr.name
        return None

    def _handle_schedule(self, expr: ast.MethodCall, state):
        model = api_models.SCHEDULING_APIS[expr.name]
        positional = expr.positional_args()
        if model.method_arg >= len(positional):
            return [(state, Const(None))]
        method_name = self._method_name_of(positional[model.method_arg])
        if method_name is None:
            self._ctx.warnings.append(
                f"{expr.name}() with unresolvable method argument"
            )
            return [(state, Const(None))]
        delay: float | SymExpr = model.fixed_delay
        if model.delay_arg is not None and model.delay_arg < len(positional):
            pairs = self._eval(positional[model.delay_arg], state)
            value = pairs[0][1] if pairs else Const(0)
            state = pairs[0][0] if pairs else state
            if isinstance(value, Const) and isinstance(value.value, (int, float)):
                delay = float(value.value)
            else:
                delay = value
        inside_handler = self._current_trigger is not None and (
            self._current_trigger.subject != "install"
        )
        if inside_handler:
            # Trace into the scheduled method with the delay attached
            # (the paper's `when` property for delayed commands).
            method = self._module.method(method_name)
            if method is None:
                self._ctx.warnings.append(
                    f"scheduled method {method_name!r} is not defined"
                )
                return [(state, Const(None))]
            if state.call_depth >= _MAX_CALL_DEPTH:
                # Mutually recursive runIn chains (e.g. strobe malware)
                # would otherwise unroll forever.
                self._ctx.warnings.append(
                    f"schedule depth limit reached tracing {method_name!r}"
                )
                return [(state, Const(None))]
            call_state = state
            saved_when = call_state.when
            call_state.when = self._add_delay(call_state.when, delay)
            call_state.call_depth += 1
            if model.fixed_period:
                call_state.period = model.fixed_period
            finished = self._exec_block(method.body, call_state)
            out = []
            for final in finished:
                final.returned = False
                final.return_value = None
                final.when = saved_when
                final.call_depth -= 1
                out.append((final, Const(None)))
            return out
        entry = ScheduledEntry(
            method=method_name,
            attribute=model.trigger_attribute,
            when=delay,
            period=model.fixed_period,
        )
        self._ctx.scheduled.setdefault((method_name, model.trigger_attribute), entry)
        return [(state, Const(None))]

    @staticmethod
    def _add_delay(base: float | SymExpr, delay: float | SymExpr) -> float | SymExpr:
        if isinstance(base, (int, float)) and isinstance(delay, (int, float)):
            return base + delay
        base_expr = Const(base) if isinstance(base, (int, float)) else base
        delay_expr = Const(delay) if isinstance(delay, (int, float)) else delay
        if isinstance(base_expr, Const) and base_expr.value == 0:
            return delay_expr
        return BinExpr("+", base_expr, delay_expr)

    def _handle_http(self, expr: ast.MethodCall, state):
        results, closures, _named = self._eval_args(expr, state)
        out = []
        for st, values in results:
            self._emit_sink_action(
                st,
                Action(
                    subject="network",
                    command=expr.name,
                    params=tuple(values),
                    when=st.when,
                    period=st.period,
                ),
            )
            if closures:
                closure = closures[0]
                if closure.params:
                    st.env[closure.params[0].name] = CallExpr("httpResponse")
                else:
                    st.env["it"] = CallExpr("httpResponse")
                for final in self._exec_block(closure.body, st):
                    final.returned = False
                    final.broke = False
                    out.append((final, Const(None)))
            else:
                out.append((st, Const(None)))
        return out

    def _handle_api_sink(self, expr: ast.MethodCall, state):
        model = api_models.SINK_APIS[expr.name]
        results, _closures, _named = self._eval_args(expr, state)
        out = []
        for st, values in results:
            self._emit_sink_action(
                st,
                Action(
                    subject=model.subject,
                    command=expr.name,
                    params=tuple(values),
                    when=st.when,
                    period=st.period,
                ),
            )
            out.append((st, Const(None)))
        return out

    def _call_on(self, receiver: SymExpr, expr: ast.MethodCall, state):
        name = expr.name
        if receiver is _LOG:
            return [(state, Const(None))]
        if receiver is _MATH:
            results, _closures, _named = self._eval_args(expr, state)
            return [
                (st, CallExpr(f"Math.{name}", tuple(values)))
                for st, values in results
            ]
        if receiver is _EVENT:
            return [(state, self._event_property(name))]
        if receiver is _LOCATION:
            if name in ("setMode",):
                results, _closures, _named = self._eval_args(expr, state)
                out = []
                for st, values in results:
                    self._emit_sink_action(
                        st,
                        Action(subject="location", command="setLocationMode",
                               params=tuple(values), when=st.when,
                               period=st.period),
                    )
                    out.append((st, Const(None)))
                return out
            return [(state, LocationAttr(name))]
        if receiver is _STATE:
            return [(state, CallExpr(f"state.{name}"))]
        if isinstance(receiver, DeviceRef):
            return self._call_on_device(receiver, expr, state)
        if isinstance(receiver, ListVal):
            return self._call_on_list(receiver, expr, state)
        return self._call_generic(receiver, expr, state)

    def _call_on_device(self, device: DeviceRef, expr: ast.MethodCall, state):
        name = expr.name
        if name in ("currentValue", "latestValue", "currentState", "latestState"):
            positional = expr.positional_args()
            if positional and isinstance(positional[0], ast.StringLiteral):
                return [(state, DeviceAttr(device, positional[0].value))]
            pairs = self._eval(positional[0], state) if positional else []
            if pairs and isinstance(pairs[0][1], Const):
                return [(pairs[0][0], DeviceAttr(device, str(pairs[0][1].value)))]
            return [(state, CallExpr("currentValue", (device,)))]
        if name in ("getId",):
            return [(state, CallExpr("deviceId", (device,)))]
        if name in ("getDisplayName", "getLabel"):
            return [(state, CallExpr("displayName", (device,)))]
        if name in ("events", "eventsSince", "statesSince", "eventsBetween"):
            return [(state, CallExpr("deviceHistory", (device,)))]
        if name == "hasCapability":
            return [(state, CallExpr("hasCapability", (device,)))]
        if name in ("each", "collect", "findAll", "find", "any", "every"):
            # A group input used with an iterator: run the closure once
            # with the loop variable standing for the whole group.
            return self._run_iterator_closure(receiver=device, expr=expr, state=state)
        if is_sink_command(name):
            results, _closures, _named = self._eval_args(expr, state)
            spec = find_command(name, device.capability)
            out = []
            for st, values in results:
                self._emit_sink_action(
                    st,
                    Action(
                        subject=device.name,
                        command=name,
                        params=tuple(values),
                        when=st.when,
                        period=st.period,
                        device=device,
                        capability=spec.capability if spec else None,
                    ),
                )
                out.append((st, Const(None)))
            return out
        self._ctx.warnings.append(
            f"unmodeled device method {name!r} on {device.name!r}"
        )
        results, _closures, _named = self._eval_args(expr, state)
        return [
            (st, CallExpr(f"device.{name}", (device, *values)))
            for st, values in results
        ]

    def _run_iterator_closure(self, receiver: SymExpr, expr: ast.MethodCall, state):
        closures = [arg for arg in expr.args if isinstance(arg, ast.ClosureExpr)]
        if not closures:
            return [(state, CallExpr(expr.name, (receiver,)))]
        closure = closures[0]
        param = closure.params[0].name if closure.params else "it"
        items: list[SymExpr]
        if isinstance(receiver, ListVal):
            items = list(receiver.items)
        else:
            items = [receiver]
        states = [state]
        for item in items:
            next_states = []
            for st in states:
                st.env[param] = item
                next_states.extend(self._exec_block(closure.body, st))
            states = self._cap_states(next_states)
        out = []
        for final in states:
            final.returned = False
            final.broke = False
            out.append((final, receiver))
        return out

    def _call_on_list(self, receiver: ListVal, expr: ast.MethodCall, state):
        name = expr.name
        if name in ("each", "collect", "findAll", "find", "any", "every"):
            return self._run_iterator_closure(receiver, expr, state)
        if name == "size":
            return [(state, Const(len(receiver.items)))]
        if name == "contains":
            results, _closures, _named = self._eval_args(expr, state)
            return [
                (st, self._binop("in", values[0], receiver) if values else Const(False))
                for st, values in results
            ]
        if is_sink_command(name) and receiver.items and all(
            isinstance(item, DeviceRef) for item in receiver.items
        ):
            # Commands fan out over explicit device lists.
            out = []
            results, _closures, _named = self._eval_args(expr, state)
            for st, values in results:
                for item in receiver.items:
                    spec = find_command(name, item.capability)
                    self._emit_sink_action(
                        st,
                        Action(
                            subject=item.name,
                            command=name,
                            params=tuple(values),
                            when=st.when,
                            period=st.period,
                            device=item,
                            capability=spec.capability if spec else None,
                        ),
                    )
                out.append((st, Const(None)))
            return out
        results, _closures, _named = self._eval_args(expr, state)
        return [
            (st, CallExpr(f"list.{name}", (receiver, *values)))
            for st, values in results
        ]

    _COERCIONS = {
        "toInteger", "toFloat", "toDouble", "toBigDecimal", "intValue",
        "floatValue", "doubleValue", "toString", "trim", "toLowerCase",
        "toUpperCase", "value",
    }

    def _call_generic(self, receiver: SymExpr, expr: ast.MethodCall, state):
        name = expr.name
        if name in self._COERCIONS:
            if isinstance(receiver, Const):
                return [(state, self._coerce_const(name, receiver))]
            return [(state, receiver)]
        if name in ("equals",):
            results, _closures, _named = self._eval_args(expr, state)
            return [
                (st, self._binop("==", receiver, values[0]) if values else Const(False))
                for st, values in results
            ]
        if name in ("contains", "startsWith", "endsWith"):
            results, _closures, _named = self._eval_args(expr, state)
            out = []
            for st, values in results:
                arg = values[0] if values else Const(None)
                if (
                    isinstance(receiver, Const)
                    and isinstance(arg, Const)
                    and isinstance(receiver.value, str)
                    and isinstance(arg.value, str)
                ):
                    if name == "contains":
                        out.append((st, Const(arg.value in receiver.value)))
                    elif name == "startsWith":
                        out.append((st, Const(receiver.value.startswith(arg.value))))
                    else:
                        out.append((st, Const(receiver.value.endswith(arg.value))))
                else:
                    out.append((st, CallExpr(name, (receiver, arg))))
            return out
        if name in ("each", "collect", "findAll", "find", "any", "every"):
            return self._run_iterator_closure(receiver, expr, state)
        results, _closures, _named = self._eval_args(expr, state)
        return [
            (st, CallExpr(f"call.{name}", (receiver, *values)))
            for st, values in results
        ]

    @staticmethod
    def _coerce_const(name: str, constant: Const) -> Const:
        value = constant.value
        try:
            if name in ("toInteger", "intValue"):
                return Const(int(value))
            if name in ("toFloat", "toDouble", "toBigDecimal", "floatValue",
                        "doubleValue"):
                return Const(float(value))
            if name == "toString":
                return Const(str(value))
            if name == "trim":
                return Const(str(value).strip())
            if name == "toLowerCase":
                return Const(str(value).lower())
            if name == "toUpperCase":
                return Const(str(value).upper())
        except (TypeError, ValueError):
            return constant
        return constant

    # ------------------------------------------------------------------
    # Rule assembly

    def _emit_sink_action(self, state: PathState, action: Action) -> None:
        trigger = self._current_trigger
        if trigger is None:
            trigger = Trigger(subject="install", attribute="lifecycle")
        defs = {constraint.name: constraint.value for constraint in state.data}
        event_terms: list[SymExpr] = []
        condition_terms: list[SymExpr] = []
        if trigger.constraint is not None:
            event_terms.append(trigger.constraint)
        for term in state.path:
            # Split top-level conjunctions so `evt.value == "on" && t > x`
            # contributes its event half to the trigger constraint and the
            # rest to the rule condition (paper §V-B).
            for conjunct in self._flatten_conjuncts(term):
                resolved = self._resolve(conjunct, defs)
                if any(isinstance(node, (EventValue, EventAttr))
                       for node in resolved.walk()):
                    event_terms.append(conjunct)
                else:
                    condition_terms.append(conjunct)
        data_constraints = self._relevant_data(
            state, condition_terms + event_terms, action, defs
        )
        final_trigger = Trigger(
            subject=trigger.subject,
            attribute=trigger.attribute,
            constraint=conjoin(event_terms),
            device=trigger.device,
        )
        condition = Condition(
            data_constraints=tuple(data_constraints),
            predicate_constraints=tuple(condition_terms),
        )
        rule = Rule(
            app_name=self._app_name,
            rule_id=f"{self._app_name}/R{len(self._rules) + 1}",
            trigger=final_trigger,
            condition=condition,
            action=action,
        )
        # Keyed by repr: Const values may hold unhashable dicts/lists.
        key = repr((final_trigger, condition, action))
        if key in self._rule_keys:
            return
        self._rule_keys.add(key)
        self._rules.append(rule)

    def _relevant_data(
        self,
        state: PathState,
        terms: list[SymExpr],
        action: Action,
        defs: dict[str, SymExpr],
    ) -> list[DataConstraint]:
        """Data constraints reachable from the rule's predicates and
        action parameters, plus symbolic-input markers (the paper's
        ``#DevState`` notation in Table II)."""
        needed: set[str] = set()
        frontier: list[SymExpr] = list(terms) + list(action.params)
        seen_exprs: list[SymExpr] = []
        while frontier:
            expr = frontier.pop()
            seen_exprs.append(expr)
            for node in expr.walk():
                if isinstance(node, LocalVar) and node.key not in needed:
                    needed.add(node.key)
                    definition = defs.get(node.key)
                    if definition is not None:
                        frontier.append(definition)
        ordered: list[DataConstraint] = []
        for constraint in state.data:
            if constraint.name in needed:
                ordered.append(constraint)
        markers: list[DataConstraint] = []
        marked: set[str] = set()
        for expr in seen_exprs:
            for node in expr.walk():
                if isinstance(node, DeviceAttr):
                    key = f"{node.device.name}.{node.attribute}"
                    if key not in marked:
                        marked.add(key)
                        markers.append(DataConstraint(key, Const("#DevState")))
                elif isinstance(node, UserInput):
                    if node.name not in marked:
                        marked.add(node.name)
                        markers.append(
                            DataConstraint(node.name, Const("#UserInput"))
                        )
        return ordered + markers

    def _flatten_conjuncts(self, term: SymExpr) -> list[SymExpr]:
        if isinstance(term, BinExpr) and term.op == "&&":
            return self._flatten_conjuncts(term.left) + self._flatten_conjuncts(
                term.right
            )
        return [term]

    def _resolve(self, expr: SymExpr, defs: dict[str, SymExpr]) -> SymExpr:
        """Substitute local-variable definitions (used to classify
        constraints as event-related)."""
        if isinstance(expr, LocalVar):
            definition = defs.get(expr.key)
            if definition is None:
                return expr
            return self._resolve(definition, defs)
        if isinstance(expr, BinExpr):
            return BinExpr(
                expr.op,
                self._resolve(expr.left, defs),
                self._resolve(expr.right, defs),
            )
        if isinstance(expr, NotExpr):
            return NotExpr(self._resolve(expr.operand, defs))
        if isinstance(expr, Concat):
            return Concat(tuple(self._resolve(part, defs) for part in expr.parts))
        if isinstance(expr, CallExpr):
            return CallExpr(
                expr.function,
                tuple(self._resolve(arg, defs) for arg in expr.args),
            )
        return expr
