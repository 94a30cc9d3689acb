//! Name and type resolution: AST → bound [`LogicalPlan`].

use crate::ast::{
    AggName, BinaryOp, Expr, Literal, Select, SelectItem, TableRef, UnaryOp,
};
use crate::catalog::CatalogView;
use crate::plan::{AggExpr, AggFunc, BoundExpr, LogicalPlan, OutCol, ScalarFunc};
use redsim_common::{DataType, Result, RsError, Value};
use redsim_distribution::JoinDistStrategy;
use redsim_storage::table::ScanPredicate;

/// One visible column during binding.
#[derive(Debug, Clone)]
pub(crate) struct ScopeCol {
    table_alias: String,
    name: String,
    ty: DataType,
}

/// The column namespace of the plan under construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    cols: Vec<ScopeCol>,
}

impl Scope {
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<(usize, DataType)> {
        let matches: Vec<(usize, &ScopeCol)> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name.eq_ignore_ascii_case(name)
                    && table.is_none_or(|t| c.table_alias.eq_ignore_ascii_case(t))
            })
            .collect();
        match matches.len() {
            0 => Err(RsError::Analysis(format!(
                "column {}{name} does not exist",
                table.map(|t| format!("{t}.")).unwrap_or_default()
            ))),
            1 => Ok((matches[0].0, matches[0].1.ty)),
            _ => Err(RsError::Analysis(format!("column reference {name:?} is ambiguous"))),
        }
    }
}

/// Binds parsed statements against a catalog.
pub struct Binder<'a> {
    catalog: &'a dyn CatalogView,
}

impl<'a> Binder<'a> {
    pub fn new(catalog: &'a dyn CatalogView) -> Self {
        Binder { catalog }
    }

    /// Bind a SELECT into a logical plan.
    pub fn bind_select(&self, sel: &Select) -> Result<LogicalPlan> {
        if sel.from.len() != 1 {
            return Err(RsError::Unsupported(
                "comma-separated FROM lists are not supported; use explicit JOIN … ON".into(),
            ));
        }

        // FROM + JOINs (left-deep).
        let (mut plan, mut scope) = self.bind_table(&sel.from[0])?;
        for join in &sel.joins {
            let (right_plan, right_scope) = self.bind_table(&join.table)?;
            let left_width = scope.cols.len();
            let mut combined = scope.clone();
            combined.cols.extend(right_scope.cols.clone());

            // Split ON into conjuncts; find the equi-join key.
            let conjuncts = split_conjuncts(&join.on);
            let mut left_key = None;
            let mut right_key = None;
            let mut residual: Option<BoundExpr> = None;
            for c in conjuncts {
                // Type-checked as any `=` is, key or residual.
                let bound = self.bind_expr(c, &combined)?;
                let mut used_as_key = false;
                if let Expr::Binary { left, op: BinaryOp::Eq, right } = c {
                    if left_key.is_none() {
                        if let (Expr::Column { table: lt, name: ln }, Expr::Column { table: rt, name: rn }) =
                            (left.as_ref(), right.as_ref())
                        {
                            let a = combined.resolve(lt.as_deref(), ln)?;
                            let b = combined.resolve(rt.as_deref(), rn)?;
                            let (l, r) = if a.0 < left_width && b.0 >= left_width {
                                (a, b)
                            } else if b.0 < left_width && a.0 >= left_width {
                                (b, a)
                            } else {
                                // Both on one side: residual.
                                (a, a)
                            };
                            if l.0 < left_width && r.0 >= left_width {
                                left_key = Some(l.0);
                                right_key = Some(r.0 - left_width);
                                used_as_key = true;
                            }
                        }
                    }
                }
                if !used_as_key {
                    residual = Some(match residual {
                        Some(prev) => BoundExpr::Binary {
                            left: Box::new(prev),
                            op: BinaryOp::And,
                            right: Box::new(bound),
                        },
                        None => bound,
                    });
                }
            }
            let (left_key, right_key) = match (left_key, right_key) {
                (Some(l), Some(r)) => (l, r),
                _ => {
                    return Err(RsError::Unsupported(
                        "JOIN requires an equi-join condition (left.col = right.col)".into(),
                    ))
                }
            };
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(right_plan),
                join_type: join.join_type,
                left_key,
                right_key,
                residual,
                strategy: JoinDistStrategy::DistBoth, // optimizer refines
                emit: (0..combined.cols.len()).collect(), // optimizer prunes
            };
            scope = combined;
        }

        // WHERE.
        if let Some(w) = &sel.where_clause {
            let pred = self.bind_expr(w, &scope)?;
            expect_bool(&pred, "WHERE")?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred };
        }

        // Aggregation.
        let has_aggs = sel.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => contains_agg(expr),
            _ => false,
        }) || sel.having.as_ref().is_some_and(contains_agg);

        let (mut plan, scope, post_agg) = if has_aggs || !sel.group_by.is_empty() {
            let group_bound: Vec<BoundExpr> = sel
                .group_by
                .iter()
                .map(|e| self.bind_expr(e, &scope))
                .collect::<Result<_>>()?;
            // Collect aggregate calls from projection + having.
            let mut agg_calls: Vec<&Expr> = Vec::new();
            for item in &sel.projection {
                if let SelectItem::Expr { expr, .. } = item {
                    collect_aggs(expr, &mut agg_calls);
                }
            }
            if let Some(h) = &sel.having {
                collect_aggs(h, &mut agg_calls);
            }
            // Deduplicate structurally.
            let mut unique_aggs: Vec<&Expr> = Vec::new();
            for a in agg_calls {
                if !unique_aggs.contains(&a) {
                    unique_aggs.push(a);
                }
            }
            let aggs: Vec<AggExpr> = unique_aggs
                .iter()
                .enumerate()
                .map(|(i, e)| self.bind_agg(e, &scope, i))
                .collect::<Result<_>>()?;
            // Aggregate output scope: group columns then agg results.
            let mut out_scope = Scope::default();
            let mut output = Vec::new();
            for (i, (gexpr, gast)) in group_bound.iter().zip(&sel.group_by).enumerate() {
                let name = expr_display_name(gast).unwrap_or_else(|| format!("group_{i}"));
                out_scope.cols.push(ScopeCol {
                    table_alias: String::new(),
                    name: name.clone(),
                    ty: gexpr.ty(),
                });
                output.push(OutCol { name, ty: gexpr.ty() });
            }
            for a in &aggs {
                out_scope.cols.push(ScopeCol {
                    table_alias: String::new(),
                    name: a.output_name.clone(),
                    ty: a.ty(),
                });
                output.push(OutCol { name: a.output_name.clone(), ty: a.ty() });
            }
            let agg_plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: group_bound,
                aggs,
                output,
            };
            let post = PostAgg { group_by_ast: sel.group_by.clone(), agg_ast: unique_aggs.into_iter().cloned().collect() };
            (agg_plan, out_scope, Some(post))
        } else {
            (plan, scope, None)
        };

        // HAVING (bound over aggregate output).
        if let Some(h) = &sel.having {
            let post = post_agg
                .as_ref()
                .ok_or_else(|| RsError::Analysis("HAVING requires aggregation".into()))?;
            let pred = self.bind_post_agg(h, post, &scope)?;
            expect_bool(&pred, "HAVING")?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred };
        }

        // Projection.
        let mut proj_exprs: Vec<BoundExpr> = Vec::new();
        let mut out_cols: Vec<OutCol> = Vec::new();
        for item in &sel.projection {
            match item {
                SelectItem::Wildcard => {
                    if post_agg.is_some() {
                        return Err(RsError::Analysis("SELECT * with GROUP BY is invalid".into()));
                    }
                    for (i, c) in scope.cols.iter().enumerate() {
                        proj_exprs.push(BoundExpr::Column { index: i, ty: c.ty });
                        out_cols.push(OutCol { name: c.name.clone(), ty: c.ty });
                    }
                }
                SelectItem::QualifiedWildcard(t) => {
                    if post_agg.is_some() {
                        return Err(RsError::Analysis("t.* with GROUP BY is invalid".into()));
                    }
                    let mut found = false;
                    for (i, c) in scope.cols.iter().enumerate() {
                        if c.table_alias.eq_ignore_ascii_case(t) {
                            proj_exprs.push(BoundExpr::Column { index: i, ty: c.ty });
                            out_cols.push(OutCol { name: c.name.clone(), ty: c.ty });
                            found = true;
                        }
                    }
                    if !found {
                        return Err(RsError::Analysis(format!("unknown table alias {t:?}")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = match &post_agg {
                        Some(post) => self.bind_post_agg(expr, post, &scope)?,
                        None => self.bind_expr(expr, &scope)?,
                    };
                    let name = alias
                        .clone()
                        .or_else(|| expr_display_name(expr))
                        .unwrap_or_else(|| format!("col_{}", out_cols.len()));
                    out_cols.push(OutCol { name, ty: bound.ty() });
                    proj_exprs.push(bound);
                }
            }
        }
        // SELECT DISTINCT: dedupe by grouping on every projected column.
        if sel.distinct {
            if has_aggs || !sel.group_by.is_empty() {
                return Err(RsError::Unsupported(
                    "SELECT DISTINCT with aggregation is not supported".into(),
                ));
            }
            let group_by: Vec<BoundExpr> = out_cols
                .iter()
                .enumerate()
                .map(|(i, c)| BoundExpr::Column { index: i, ty: c.ty })
                .collect();
            plan = LogicalPlan::Aggregate {
                input: Box::new(LogicalPlan::Project {
                    input: Box::new(plan),
                    exprs: proj_exprs.clone(),
                    output: out_cols.clone(),
                }),
                group_by,
                aggs: Vec::new(),
                output: out_cols.clone(),
            };
            // The dedup output replaces the projection below: rewrite the
            // projection to identity over the aggregate output.
            proj_exprs = out_cols
                .iter()
                .enumerate()
                .map(|(i, c)| BoundExpr::Column { index: i, ty: c.ty })
                .collect();
        }

        // ORDER BY binds against the projected output (aliases and output
        // names). A bare integer literal is a 1-based position in the
        // select list (`ORDER BY 1 + 0` stays an expression). Two
        // fallbacks keep common SQL working:
        //   1. qualified names (`c.region`) retry unqualified — the
        //      projection drops qualifiers;
        //   2. expressions over *pre-projection* columns (ORDER BY a
        //      column that isn't selected) become hidden projection
        //      columns, trimmed off after the sort.
        let visible = out_cols.len();
        let proj_scope = Scope {
            cols: out_cols
                .iter()
                .map(|c| ScopeCol { table_alias: String::new(), name: c.name.clone(), ty: c.ty })
                .collect(),
        };
        let mut keys: Vec<(BoundExpr, bool)> = Vec::new();
        if !sel.order_by.is_empty() {
            for item in &sel.order_by {
                if let Expr::Literal(Literal::Int(pos)) = item.expr {
                    // Position 0 wraps past any list.
                    let index = (pos as usize).wrapping_sub(1);
                    let Some(col) = out_cols[..visible].get(index) else {
                        return Err(RsError::Analysis(format!(
                            "ORDER BY position {pos} is not in select list"
                        )));
                    };
                    keys.push((BoundExpr::Column { index, ty: col.ty }, item.desc));
                    continue;
                }
                let over_projection = self.bind_expr(&item.expr, &proj_scope).or_else(|e| {
                    match &item.expr {
                        Expr::Column { table: Some(_), name } => self
                            .bind_expr(&Expr::Column { table: None, name: name.clone() }, &proj_scope),
                        _ => Err(e),
                    }
                });
                let key = match over_projection {
                    Ok(k) => k,
                    Err(outer_err) => {
                        // Hidden column: bind over the pre-projection scope.
                        if sel.distinct {
                            // Standard SQL: DISTINCT ORDER BY expressions
                            // must appear in the select list.
                            return Err(RsError::Analysis(
                                "for SELECT DISTINCT, ORDER BY expressions must appear in the select list"
                                    .into(),
                            ));
                        }
                        let bound = match &post_agg {
                            Some(post) => self.bind_post_agg(&item.expr, post, &scope),
                            None => self.bind_expr(&item.expr, &scope),
                        }
                        .map_err(|_| outer_err)?;
                        let idx = proj_exprs.len();
                        out_cols.push(OutCol {
                            name: format!("__sort_{idx}"),
                            ty: bound.ty(),
                        });
                        proj_exprs.push(bound.clone());
                        BoundExpr::Column { index: idx, ty: bound.ty() }
                    }
                };
                keys.push((key, item.desc));
            }
        }
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: proj_exprs.clone(),
            output: out_cols.clone(),
        };
        if !keys.is_empty() {
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
        }
        // Trim hidden sort columns.
        if out_cols.len() > visible {
            let trimmed: Vec<OutCol> = out_cols[..visible].to_vec();
            let exprs: Vec<BoundExpr> = trimmed
                .iter()
                .enumerate()
                .map(|(i, c)| BoundExpr::Column { index: i, ty: c.ty })
                .collect();
            plan = LogicalPlan::Project { input: Box::new(plan), exprs, output: trimmed };
        }

        if let Some(n) = sel.limit {
            plan = LogicalPlan::Limit { input: Box::new(plan), n };
        }
        Ok(plan)
    }

    fn bind_table(&self, tref: &TableRef) -> Result<(LogicalPlan, Scope)> {
        let meta = self
            .catalog
            .table(&tref.name)
            .ok_or_else(|| RsError::NotFound(format!("relation {:?} does not exist", tref.name)))?;
        let alias = tref.alias.clone().unwrap_or_else(|| tref.name.clone());
        let scope = Scope {
            cols: meta
                .schema
                .columns()
                .iter()
                .map(|c| ScopeCol {
                    table_alias: alias.clone(),
                    name: c.name.clone(),
                    ty: c.data_type,
                })
                .collect(),
        };
        let output: Vec<OutCol> = meta
            .schema
            .columns()
            .iter()
            .map(|c| OutCol { name: c.name.clone(), ty: c.data_type })
            .collect();
        let plan = LogicalPlan::Scan {
            table: meta.name.clone(),
            projection: (0..meta.schema.len()).collect(),
            output,
            filter: None,
            pruning: ScanPredicate::default(),
        };
        Ok((plan, scope))
    }

    fn bind_agg(&self, e: &Expr, scope: &Scope, ordinal: usize) -> Result<AggExpr> {
        if let Expr::Agg { func, arg, distinct } = e {
            let (f, name) = match func {
                AggName::Count => (AggFunc::Count, "count"),
                AggName::CountStar => (AggFunc::CountStar, "count"),
                AggName::Sum => (AggFunc::Sum, "sum"),
                AggName::Avg => (AggFunc::Avg, "avg"),
                AggName::Min => (AggFunc::Min, "min"),
                AggName::Max => (AggFunc::Max, "max"),
                AggName::ApproxCountDistinct => (AggFunc::ApproxCountDistinct, "approx_count"),
            };
            if *distinct && !matches!(f, AggFunc::ApproxCountDistinct | AggFunc::Count) {
                return Err(RsError::Unsupported("DISTINCT only with COUNT".into()));
            }
            let bound_arg = match arg {
                Some(a) => Some(self.bind_expr(a, scope)?),
                None => None,
            };
            if let (AggFunc::Sum | AggFunc::Avg, Some(a)) = (&f, &bound_arg) {
                if !a.ty().is_numeric() {
                    return Err(RsError::Analysis(format!("{name}() needs a numeric argument")));
                }
            }
            Ok(AggExpr {
                func: f,
                arg: bound_arg,
                distinct: *distinct,
                output_name: format!("{name}_{ordinal}"),
            })
        } else {
            Err(RsError::Plan("bind_agg on non-aggregate".into()))
        }
    }

    /// Bind an expression that sits above an Aggregate node: group-by
    /// expressions become column 0..g, aggregate calls become columns
    /// g..g+n; any other column reference is an error.
    fn bind_post_agg(&self, e: &Expr, post: &PostAgg, agg_scope: &Scope) -> Result<BoundExpr> {
        // Structural match against a GROUP BY expression?
        if let Some(i) = post.group_by_ast.iter().position(|g| g == e) {
            return Ok(BoundExpr::Column { index: i, ty: agg_scope.cols[i].ty });
        }
        if let Expr::Agg { .. } = e {
            let j = post
                .agg_ast
                .iter()
                .position(|a| a == e)
                .ok_or_else(|| RsError::Plan("aggregate not collected".into()))?;
            let idx = post.group_by_ast.len() + j;
            return Ok(BoundExpr::Column { index: idx, ty: agg_scope.cols[idx].ty });
        }
        match e {
            Expr::Column { table, name } => {
                // Allow referring to a group key by its bare column name.
                if table.is_none() {
                    if let Ok((i, ty)) = agg_scope.resolve(None, name) {
                        return Ok(BoundExpr::Column { index: i, ty });
                    }
                }
                Err(RsError::Analysis(format!(
                    "column {name:?} must appear in the GROUP BY clause or be used in an aggregate"
                )))
            }
            Expr::Literal(l) => Ok(BoundExpr::Literal(literal_value(l)?)),
            Expr::Unary { op, expr } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.bind_post_agg(expr, post, agg_scope)?),
            }),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.bind_post_agg(left, post, agg_scope)?),
                op: *op,
                right: Box::new(self.bind_post_agg(right, post, agg_scope)?),
            }),
            Expr::Cast { expr, to } => Ok(BoundExpr::Cast {
                expr: Box::new(self.bind_post_agg(expr, post, agg_scope)?),
                to: *to,
            }),
            Expr::IsNull { expr, negated } => Ok(BoundExpr::IsNull {
                expr: Box::new(self.bind_post_agg(expr, post, agg_scope)?),
                negated: *negated,
            }),
            Expr::Func { .. } | Expr::Case { .. } | Expr::Between { .. } | Expr::InList { .. }
            | Expr::Like { .. } => Err(RsError::Unsupported(
                "complex expressions over aggregates are not supported".into(),
            )),
            Expr::Agg { .. } => unreachable!("handled above"),
        }
    }

    /// Bind a constant expression (no column references) — INSERT VALUES.
    pub fn bind_standalone(&self, e: &Expr) -> Result<BoundExpr> {
        self.bind_expr(e, &Scope::default())
    }

    /// Bind a scalar expression against a scope.
    pub(crate) fn bind_expr(&self, e: &Expr, scope: &Scope) -> Result<BoundExpr> {
        Ok(match e {
            Expr::Column { table, name } => {
                let (index, ty) = scope.resolve(table.as_deref(), name)?;
                BoundExpr::Column { index, ty }
            }
            Expr::Literal(l) => BoundExpr::Literal(literal_value(l)?),
            Expr::Unary { op, expr } => {
                let inner = self.bind_expr(expr, scope)?;
                match op {
                    UnaryOp::Not => expect_bool(&inner, "NOT")?,
                    UnaryOp::Neg => {
                        if !inner.ty().is_numeric() {
                            return Err(RsError::Analysis("unary minus needs a number".into()));
                        }
                    }
                }
                BoundExpr::Unary { op: *op, expr: Box::new(inner) }
            }
            Expr::Binary { left, op, right } => {
                let l = self.bind_expr(left, scope)?;
                let r = self.bind_expr(right, scope)?;
                check_binary_types(&l, *op, &r)?;
                BoundExpr::Binary { left: Box::new(l), op: *op, right: Box::new(r) }
            }
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, scope)?),
                negated: *negated,
            },
            Expr::Between { expr, low, high, negated } => {
                // Desugar: e BETWEEN a AND b  →  e >= a AND e <= b.
                let e_b = self.bind_expr(expr, scope)?;
                let lo = self.bind_expr(low, scope)?;
                let hi = self.bind_expr(high, scope)?;
                let ge = BoundExpr::Binary {
                    left: Box::new(e_b.clone()),
                    op: BinaryOp::GtEq,
                    right: Box::new(lo),
                };
                let le = BoundExpr::Binary {
                    left: Box::new(e_b),
                    op: BinaryOp::LtEq,
                    right: Box::new(hi),
                };
                let both = BoundExpr::Binary {
                    left: Box::new(ge),
                    op: BinaryOp::And,
                    right: Box::new(le),
                };
                if *negated {
                    BoundExpr::Unary { op: UnaryOp::Not, expr: Box::new(both) }
                } else {
                    both
                }
            }
            Expr::InList { expr, list, negated } => {
                let inner = self.bind_expr(expr, scope)?;
                let values: Result<Vec<Value>> = list
                    .iter()
                    .map(|item| match item {
                        Expr::Literal(l) => literal_value(l),
                        Expr::Unary { op: UnaryOp::Neg, expr } => {
                            if let Expr::Literal(l) = expr.as_ref() {
                                negate_value(literal_value(l)?)
                            } else {
                                Err(RsError::Unsupported("IN list items must be literals".into()))
                            }
                        }
                        _ => Err(RsError::Unsupported("IN list items must be literals".into())),
                    })
                    .collect();
                BoundExpr::InList { expr: Box::new(inner), list: values?, negated: *negated }
            }
            Expr::Like { expr, pattern, negated } => {
                let inner = self.bind_expr(expr, scope)?;
                if inner.ty() != DataType::Varchar {
                    return Err(RsError::Analysis("LIKE needs a string operand".into()));
                }
                BoundExpr::Like {
                    expr: Box::new(inner),
                    pattern: pattern.clone(),
                    negated: *negated,
                }
            }
            Expr::Cast { expr, to } => {
                BoundExpr::Cast { expr: Box::new(self.bind_expr(expr, scope)?), to: *to }
            }
            Expr::Case { branches, else_expr } => {
                let mut bound_branches = Vec::with_capacity(branches.len());
                let mut result_ty: Option<DataType> = None;
                for (c, v) in branches {
                    let cb = self.bind_expr(c, scope)?;
                    expect_bool(&cb, "CASE WHEN")?;
                    let vb = self.bind_expr(v, scope)?;
                    result_ty = Some(result_ty.map_or(vb.ty(), |t| unify_types(t, vb.ty())));
                    bound_branches.push((cb, vb));
                }
                let bound_else = match else_expr {
                    Some(e) => {
                        let b = self.bind_expr(e, scope)?;
                        result_ty = Some(result_ty.map_or(b.ty(), |t| unify_types(t, b.ty())));
                        Some(Box::new(b))
                    }
                    None => None,
                };
                BoundExpr::Case {
                    branches: bound_branches,
                    else_expr: bound_else,
                    ty: result_ty.unwrap_or(DataType::Bool),
                }
            }
            Expr::Agg { .. } => {
                return Err(RsError::Analysis(
                    "aggregate functions are not allowed here".into(),
                ))
            }
            Expr::Func { name, args } => {
                let bound_args: Vec<BoundExpr> =
                    args.iter().map(|a| self.bind_expr(a, scope)).collect::<Result<_>>()?;
                let func = match (name.as_str(), bound_args.len()) {
                    ("lower", 1) => ScalarFunc::Lower,
                    ("upper", 1) => ScalarFunc::Upper,
                    ("length", 1) | ("len", 1) | ("char_length", 1) => ScalarFunc::Length,
                    ("abs", 1) => ScalarFunc::Abs,
                    ("date_part", 2) => {
                        let field = match &args[0] {
                            Expr::Literal(Literal::String(s)) => s.to_ascii_lowercase(),
                            _ => {
                                return Err(RsError::Analysis(
                                    "date_part needs a literal field name".into(),
                                ))
                            }
                        };
                        let f = match field.as_str() {
                            "year" | "y" => ScalarFunc::DatePartYear,
                            "month" | "mon" => ScalarFunc::DatePartMonth,
                            "day" | "d" => ScalarFunc::DatePartDay,
                            other => {
                                return Err(RsError::Unsupported(format!(
                                    "date_part field {other:?}"
                                )))
                            }
                        };
                        return Ok(BoundExpr::Func { func: f, args: vec![bound_args[1].clone()] });
                    }
                    (other, n) => {
                        return Err(RsError::Unsupported(format!(
                            "function {other}/{n} does not exist"
                        )))
                    }
                };
                BoundExpr::Func { func, args: bound_args }
            }
        })
    }
}

/// AST fragments remembered for binding expressions above an aggregation.
struct PostAgg {
    group_by_ast: Vec<Expr>,
    agg_ast: Vec<Expr>,
}

fn split_conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary { left, op: BinaryOp::And, right } => {
            let mut out = split_conjuncts(left);
            out.extend(split_conjuncts(right));
            out
        }
        other => vec![other],
    }
}

fn contains_agg(e: &Expr) -> bool {
    let mut v = Vec::new();
    collect_aggs(e, &mut v);
    !v.is_empty()
}

fn collect_aggs<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Agg { .. } => out.push(e),
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            collect_aggs(expr, out)
        }
        Expr::Binary { left, right, .. } => {
            collect_aggs(left, out);
            collect_aggs(right, out);
        }
        Expr::Between { expr, low, high, .. } => {
            collect_aggs(expr, out);
            collect_aggs(low, out);
            collect_aggs(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for l in list {
                collect_aggs(l, out);
            }
        }
        Expr::Like { expr, .. } => collect_aggs(expr, out),
        Expr::Case { branches, else_expr } => {
            for (c, v) in branches {
                collect_aggs(c, out);
                collect_aggs(v, out);
            }
            if let Some(e2) = else_expr {
                collect_aggs(e2, out);
            }
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Column { .. } | Expr::Literal(_) => {}
    }
}

fn expr_display_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Column { name, .. } => Some(name.clone()),
        Expr::Agg { func, .. } => Some(
            match func {
                AggName::Count | AggName::CountStar => "count",
                AggName::Sum => "sum",
                AggName::Avg => "avg",
                AggName::Min => "min",
                AggName::Max => "max",
                AggName::ApproxCountDistinct => "approx_count",
            }
            .to_string(),
        ),
        Expr::Func { name, .. } => Some(name.clone()),
        _ => None,
    }
}

fn literal_value(l: &Literal) -> Result<Value> {
    Ok(match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Int(i) => Value::Int8(*i),
        Literal::Float(f) => Value::Float8(*f),
        Literal::Decimal(s) => {
            let scale = s.split('.').nth(1).map_or(0, |f| f.len().min(38)) as u8;
            Value::Decimal { units: redsim_common::types::parse_decimal(s, scale)?, scale }
        }
        Literal::String(s) => Value::Str(s.clone()),
    })
}

fn negate_value(v: Value) -> Result<Value> {
    Ok(match v {
        Value::Int8(i) => Value::Int8(-i),
        Value::Float8(f) => Value::Float8(-f),
        Value::Decimal { units, scale } => Value::Decimal { units: -units, scale },
        other => {
            return Err(RsError::Analysis(format!("cannot negate {other:?}")));
        }
    })
}

fn expect_bool(e: &BoundExpr, what: &str) -> Result<()> {
    if e.ty() != DataType::Bool {
        return Err(RsError::Analysis(format!("{what} requires a boolean, got {}", e.ty())));
    }
    Ok(())
}

fn check_binary_types(l: &BoundExpr, op: BinaryOp, r: &BoundExpr) -> Result<()> {
    use BinaryOp::*;
    // NULL literals compare with anything.
    let lt = l.ty();
    let rt = r.ty();
    let is_null = |e: &BoundExpr| matches!(e, BoundExpr::Literal(Value::Null));
    match op {
        And | Or => {
            expect_bool(l, "AND/OR")?;
            expect_bool(r, "AND/OR")?;
        }
        Add | Sub | Mul | Div | Mod => {
            if !(lt.is_numeric() || matches!(lt, DataType::Date | DataType::Timestamp))
                || !(rt.is_numeric() || matches!(rt, DataType::Date | DataType::Timestamp))
            {
                return Err(RsError::Analysis(format!("cannot apply {op:?} to {lt} and {rt}")));
            }
        }
        Concat => {}
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            if is_null(l) || is_null(r) {
                return Ok(());
            }
            let compatible = (lt.is_numeric() && rt.is_numeric())
                || lt == rt
                || (matches!(lt, DataType::Date | DataType::Timestamp) && rt.is_integer())
                || (matches!(rt, DataType::Date | DataType::Timestamp) && lt.is_integer())
                || (matches!(lt, DataType::Date) && matches!(rt, DataType::Timestamp))
                || (matches!(rt, DataType::Date) && matches!(lt, DataType::Timestamp));
            if !compatible {
                return Err(RsError::Analysis(format!("cannot compare {lt} with {rt}")));
            }
        }
    }
    Ok(())
}

fn unify_types(a: DataType, b: DataType) -> DataType {
    if a == b {
        a
    } else if a.is_numeric() && b.is_numeric() {
        crate::plan::numeric_result_type(a, b)
    } else {
        // Fall back to text (engine renders).
        DataType::Varchar
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use crate::parser::Parser;
    use crate::Statement;
    use redsim_common::{ColumnDef, Schema};
    use redsim_distribution::DistStyle;
    use redsim_storage::table::SortKeySpec;

    fn catalog() -> StaticCatalog {
        StaticCatalog {
            tables: vec![
                TableMeta {
                    name: "orders".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("id", DataType::Int8),
                        ColumnDef::new("cust_id", DataType::Int8),
                        ColumnDef::new("total", DataType::Float8),
                        ColumnDef::new("ts", DataType::Timestamp),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::Key(1),
                    sort_key: SortKeySpec::Compound(vec![3]),
                    rows: 1_000_000,
                },
                TableMeta {
                    name: "customers".into(),
                    schema: Schema::new(vec![
                        ColumnDef::new("id", DataType::Int8),
                        ColumnDef::new("region", DataType::Varchar),
                    ])
                    .unwrap(),
                    dist_style: DistStyle::Key(0),
                    sort_key: SortKeySpec::None,
                    rows: 10_000,
                },
            ],
            slices: 8,
        }
    }

    fn bind(sql: &str) -> Result<LogicalPlan> {
        let stmt = Parser::new(sql).unwrap().parse_statement()?;
        match stmt {
            Statement::Select(s) => Binder::new(&catalog()).bind_select(&s),
            _ => panic!("not select"),
        }
    }

    #[test]
    fn simple_select_binds() {
        let plan = bind("SELECT id, total FROM orders WHERE total > 100").unwrap();
        let out = plan.output();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].name, "id");
        assert_eq!(out[1].ty, DataType::Float8);
    }

    #[test]
    fn unknown_column_and_table_error() {
        assert!(bind("SELECT nope FROM orders").is_err());
        assert!(bind("SELECT id FROM nonexistent").is_err());
    }

    #[test]
    fn ambiguous_column_detected() {
        let err = bind("SELECT id FROM orders o JOIN customers c ON o.cust_id = c.id")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn join_keys_resolved() {
        let plan = bind(
            "SELECT o.id, c.region FROM orders o JOIN customers c ON o.cust_id = c.id",
        )
        .unwrap();
        // Find the join under the project.
        fn find_join(p: &LogicalPlan) -> Option<(usize, usize)> {
            match p {
                LogicalPlan::Join { left_key, right_key, .. } => Some((*left_key, *right_key)),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Filter { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. } => find_join(input),
                _ => None,
            }
        }
        assert_eq!(find_join(&plan), Some((1, 0))); // orders.cust_id = customers.id
    }

    #[test]
    fn reversed_join_condition_still_resolves() {
        let plan = bind(
            "SELECT o.id FROM orders o JOIN customers c ON c.id = o.cust_id",
        );
        assert!(plan.is_ok());
    }

    #[test]
    fn aggregation_and_having() {
        let plan = bind(
            "SELECT c.region, COUNT(*) AS n, SUM(o.total) FROM orders o
             JOIN customers c ON o.cust_id = c.id
             GROUP BY c.region HAVING COUNT(*) > 10",
        )
        .unwrap();
        let out = plan.output();
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].name, "n");
        assert_eq!(out[1].ty, DataType::Int8);
        assert_eq!(out[2].ty, DataType::Float8);
    }

    #[test]
    fn non_grouped_column_rejected() {
        let err = bind("SELECT total, COUNT(*) FROM orders GROUP BY cust_id").unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
    }

    #[test]
    fn between_desugars() {
        let plan = bind("SELECT id FROM orders WHERE total BETWEEN 5 AND 10").unwrap();
        fn find_filter(p: &LogicalPlan) -> bool {
            match p {
                LogicalPlan::Filter { predicate, .. } => {
                    matches!(predicate, BoundExpr::Binary { op: BinaryOp::And, .. })
                }
                LogicalPlan::Project { input, .. } => find_filter(input),
                _ => false,
            }
        }
        assert!(find_filter(&plan));
    }

    /// `ORDER BY <n>` sorts by the n-th select-list column, not by the
    /// constant n.
    #[test]
    fn order_by_position_is_a_select_list_column() {
        fn sort_keys(p: &LogicalPlan) -> Vec<(BoundExpr, bool)> {
            match p {
                LogicalPlan::Sort { keys, .. } => keys.clone(),
                LogicalPlan::Project { input, .. } | LogicalPlan::Limit { input, .. } => {
                    sort_keys(input)
                }
                other => panic!("no sort in {other:?}"),
            }
        }
        let keys = sort_keys(&bind("SELECT total, id FROM orders ORDER BY 2 DESC, 1").unwrap());
        assert_eq!(
            keys,
            [
                (BoundExpr::Column { index: 1, ty: DataType::Int8 }, true),
                (BoundExpr::Column { index: 0, ty: DataType::Float8 }, false),
            ]
        );
        // Positions count the select list only, not a hidden sort column.
        for sql in [
            "SELECT id FROM orders ORDER BY 7",
            "SELECT id FROM orders ORDER BY 0",
            "SELECT id FROM orders ORDER BY total, 2",
        ] {
            let pos = sql.rsplit(' ').next().unwrap();
            match bind(sql) {
                Err(RsError::Analysis(m)) => {
                    assert_eq!(m, format!("ORDER BY position {pos} is not in select list"))
                }
                other => panic!("{sql}: {other:?}"),
            }
        }
        // An expression is not a position.
        let keys = sort_keys(&bind("SELECT id FROM orders ORDER BY 1 + 0").unwrap());
        assert!(!matches!(keys[0].0, BoundExpr::Column { .. }), "{keys:?}");
    }

    #[test]
    fn order_by_alias() {
        let plan = bind("SELECT cust_id AS c, COUNT(*) AS n FROM orders GROUP BY cust_id ORDER BY n DESC").unwrap();
        assert!(matches!(plan, LogicalPlan::Sort { .. }));
    }

    #[test]
    fn type_errors_caught() {
        assert!(bind("SELECT id FROM orders WHERE total AND id > 1").is_err());
        assert!(bind("SELECT ts + 'x' FROM orders").is_err());
        assert!(bind("SELECT id FROM orders WHERE id LIKE 'x%'").is_err());
    }

    #[test]
    fn wildcard_expansion() {
        let plan = bind("SELECT * FROM customers").unwrap();
        assert_eq!(plan.output().len(), 2);
        let plan = bind("SELECT o.* FROM orders o JOIN customers c ON o.cust_id = c.id").unwrap();
        assert_eq!(plan.output().len(), 4);
    }

    #[test]
    fn explain_renders() {
        let plan = bind(
            "SELECT c.region, COUNT(*) FROM orders o JOIN customers c ON o.cust_id = c.id GROUP BY c.region",
        )
        .unwrap();
        let text = plan.explain();
        assert!(text.contains("Hash Join"), "{text}");
        assert!(text.contains("HashAggregate"), "{text}");
        assert!(text.contains("Seq Scan"), "{text}");
    }
}
