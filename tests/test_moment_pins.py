"""Bit pins of the moment quadratures.

float.hex of (value, error estimate) of moment_with_error on 13 test
functions by 12 orders up to p = 64, with the refusals the grid meets, and
of a few moment_origin and laplace_sample values. The functions cover
exp_power for s = 0.3 ... 5 and make_user with a fast, a polynomial (probed
and declared) and two far-peaked envelopes, so a change to how the dyadic
scale scan or the panel loop runs must keep every panel and every bit. The
same functions check that the envelope's early end of the scale scan picks
the scale the full scan picks.
"""

import math
import sys

import pytest

from momentgate.errors import EvaluationError
from momentgate.moments import (
    derivative_function,
    laplace_sample,
    make_bump01,
    make_exp_power,
    make_user,
    moment_origin,
    moment_with_error,
)
from momentgate.moments import _dominant_scale


def _far_bump(x: float) -> float:
    if x <= 0.0:
        return 0.0
    a = -((math.log(x) - math.log(1e9)) ** 2)
    return math.exp(a) if a > -650.0 else 0.0


def _far_bump_envelope(x: float) -> float:
    return 0.0 if x <= 1e9 else -((math.log(x) - math.log(1e9)) ** 2)


FUNCTIONS = {f"exp_power({s:g})": (lambda s=s: make_exp_power(s)) for s in (0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0)}
FUNCTIONS.update(
    {
        "user_fast": lambda: make_user(
            lambda x: math.exp(-x * x) if x < 30.0 else 0.0, math.inf, log_envelope=lambda x: -x * x
        ),
        "user_poly_probe": lambda: make_user(lambda x: (1.0 + x) ** -70.0, 70.0),
        "user_poly_declared": lambda: make_user(
            lambda x: 3.0 * (1.0 + x) ** -40.0,
            40.0,
            log_envelope=lambda x: math.log(3.0) - 40.0 * math.log1p(x),
        ),
        "user_far_scale": lambda: make_user(
            lambda x: math.exp(-x / 1e6), math.inf, log_envelope=lambda x: -x / 1e6
        ),
        "user_far_bump": lambda: make_user(_far_bump, math.inf, log_envelope=_far_bump_envelope),
    }
)
ORDERS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)

# (name, p) -> (value, error) as float.hex, or ("refused", type, message)
MOMENT_PINS = {
    ('exp_power(0.3)', 0): ('0x1.cb81477381734p-1', '0x1.0623462012573p-41'),
    ('exp_power(0.3)', 1): ('0x1.c97ad807542c9p-2', '0x1.38aa0da642a54p-44'),
    ('exp_power(0.3)', 2): ('0x1.484861789a6f6p-2', '0x1.a3ca88b6ebb04p-46'),
    ('exp_power(0.3)', 3): ('0x1.1a0fba60faccep-2', '0x1.3f5615f04363ep-46'),
    ('exp_power(0.3)', 4): ('0x1.103fb8a9fc2d7p-2', '0x1.54fcf75f04583p-46'),
    ('exp_power(0.3)', 6): ('0x1.417afee98e349p-2', '0x1.eeaba291566d3p-41'),
    ('exp_power(0.3)', 8): ('0x1.da8709b4a07afp-2', '0x1.381a2873e2f38p-40'),
    ('exp_power(0.3)', 12): ('0x1.96fd0fe13adbfp+0', '0x1.483821632cfb5p-46'),
    ('exp_power(0.3)', 16): ('0x1.0c2513f6fbb13p+3', '0x1.062481acf0c85p-43'),
    ('exp_power(0.3)', 24): ('0x1.18b02a53e51a1p+9', '0x1.1bff91db13057p-35'),
    ('exp_power(0.3)', 32): ('0x1.53b04fa7a8dcbp+16', '0x1.4777456d05f64p-28'),
    ('exp_power(0.3)', 64): ('0x1.d8c8996f8b9c0p+52', '0x1.71c0059890000p+6'),
    ('exp_power(0.5)', 0): ('0x1.c5bf891b4e76bp-1', '0x1.0589f697a940ep-41'),
    ('exp_power(0.5)', 1): ('0x1.ffffffffffe01p-2', '0x1.19002b60d311ap-44'),
    ('exp_power(0.5)', 2): ('0x1.c5bf891b4ef56p-2', '0x1.09e4023c353b6p-47'),
    ('exp_power(0.5)', 3): ('0x1.ffffffffffff1p-2', '0x1.0ec418e837c1ap-47'),
    ('exp_power(0.5)', 4): ('0x1.544fa6d47b38fp-1', '0x1.170d3d30eda6ep-47'),
    ('exp_power(0.5)', 6): ('0x1.a96390899a075p+0', '0x1.00a1a06266fb3p-44'),
    ('exp_power(0.5)', 8): ('0x1.74371e7866c67p+2', '0x1.60ff3a1a15565p-41'),
    ('exp_power(0.5)', 12): ('0x1.1fe2a1911f7d7p+7', '0x1.659f6ce15590fp-33'),
    ('exp_power(0.5)', 16): ('0x1.b693422315f91p+12', '0x1.2dcde0217562bp-25'),
    ('exp_power(0.5)', 24): ('0x1.05020caee5ea6p+26', '0x1.c29a94448a3e0p-12'),
    ('exp_power(0.5)', 32): ('0x1.2e1900e84c081p+41', '0x1.2103c195a9ee4p+1'),
    ('exp_power(0.5)', 64): ('0x1.1d8e421e2396bp+114', '0x1.69e72b0a1fc16p+74'),
    ('exp_power(0.75)', 0): ('0x1.d68f5d0f96141p-1', '0x1.02df400170923p-40'),
    ('exp_power(0.75)', 1): ('0x1.544fa6d47b28fp-1', '0x1.213bc74aceff3p-44'),
    ('exp_power(0.75)', 2): ('0x1.b312bc836ffa8p-1', '0x1.ff48a6f94505ap-46'),
    ('exp_power(0.75)', 3): ('0x1.7fffffffffffdp+0', '0x1.4c000000008fcp-46'),
    ('exp_power(0.75)', 4): ('0x1.a89b5cf911536p+1', '0x1.4eec93d5cb090p-45'),
    ('exp_power(0.75)', 6): ('0x1.a68a125526a61p+4', '0x1.4aae277728387p-42'),
    ('exp_power(0.75)', 8): ('0x1.53c2112cebf53p+8', '0x1.c172c0b9faa5cp-38'),
    ('exp_power(0.75)', 12): ('0x1.2fbf7996e71b4p+17', '0x1.5bfe3382c1c72p-25'),
    ('exp_power(0.75)', 16): ('0x1.6d4ff598c7f4bp+27', '0x1.b790d1e65b447p-13'),
    ('exp_power(0.75)', 24): ('0x1.07a8c73b9c809p+51', '0x1.9bf87e293805cp+4'),
    ('exp_power(0.75)', 32): ('0x1.62c6984725cf3p+77', '0x1.d044f23d73deap+32'),
    ('exp_power(0.75)', 64): ('0x1.19349c89cc3b7p+201', '0x1.eb850fd49b5c9p+163'),
    ('exp_power(1)', 0): ('0x1.ffffffffff000p-1', '0x1.0320000000022p-40'),
    ('exp_power(1)', 1): ('0x1.fffffffffff00p-1', '0x1.3200000019688p-44'),
    ('exp_power(1)', 2): ('0x1.fffffffffffd6p+0', '0x1.72aaaac414900p-45'),
    ('exp_power(1)', 3): ('0x1.7fffffffffff0p+2', '0x1.c41da94294390p-44'),
    ('exp_power(1)', 4): ('0x1.7fffffffffffdp+4', '0x1.3a82acaeb6ad0p-42'),
    ('exp_power(1)', 6): ('0x1.67fffffffffffp+9', '0x1.51601ab938212p-37'),
    ('exp_power(1)', 8): ('0x1.3afffffffffffp+15', '0x1.7ea7664653e7cp-31'),
    ('exp_power(1)', 12): ('0x1.c8cfc00000000p+28', '0x1.8e72fbee8d75bp-18'),
    ('exp_power(1)', 16): ('0x1.3077775800000p+44', '0x1.49f99d1e4b1f3p-1'),
    ('exp_power(1)', 24): ('0x1.06c52687a7b99p+79', '0x1.f3cd76c5d594dp+34'),
    ('exp_power(1)', 32): ('0x1.956ad0aae33a4p+117', '0x1.3cbb7f3f51918p+71'),
    ('exp_power(1)', 64): ('0x1.fe478ee34844ap+295', '0x1.8f31993e51df7p+249'),
    ('exp_power(1.5)', 0): ('0x1.544fa6d47ab90p+0', '0x1.042778e9585b5p-40'),
    ('exp_power(1.5)', 1): ('0x1.7ffffffffff00p+1', '0x1.258da480d4561p-42'),
    ('exp_power(1.5)', 2): ('0x1.172956da4d138p+4', '0x1.84c2fcdfabfebp-42'),
    ('exp_power(1.5)', 3): ('0x1.67ffffffffffcp+7', '0x1.59432d470bffdp-39'),
    ('exp_power(1.5)', 4): ('0x1.5edc34e8de614p+11', '0x1.161a8b6f63885p-35'),
    ('exp_power(1.5)', 6): ('0x1.9f04d955b38b9p+20', '0x1.52d63859bdabap-26'),
    ('exp_power(1.5)', 8): ('0x1.31de66dcf56f7p+31', '0x1.eac4cc1364022p-16'),
    ('exp_power(1.5)', 12): ('0x1.277d5fe5b7436p+55', '0x1.cdbeb0baf3badp+8'),
    ('exp_power(1.5)', 16): ('0x1.ea3c9fedfdb74p+81', '0x1.7f0074a24ce01p+35'),
    ('exp_power(1.5)', 24): ('0x1.36a646a40159fp+141', '0x1.4ced0b594e5aep+96'),
    ('exp_power(1.5)', 32): ('0x1.43a1b7e33fbc9p+206', '0x1.2aeffced6dd5ep+164'),
    ('exp_power(1.5)', 64): ('0x1.1e1192e53874dp+502', '0x1.d42932ad18404p+464'),
    ('exp_power(2)', 0): ('0x1.ffffffffff003p+0', '0x1.0321b78622ef6p-39'),
    ('exp_power(2)', 1): ('0x1.7ffffffffff02p+3', '0x1.2581cc46b3aefp-40'),
    ('exp_power(2)', 2): ('0x1.dffffffffffe9p+7', '0x1.1122304f2e452p-38'),
    ('exp_power(2)', 3): ('0x1.3affffffffffdp+13', '0x1.070cbf68a6455p-33'),
    ('exp_power(2)', 4): ('0x1.625ffffffffffp+19', '0x1.21a7ccd005c3fp-27'),
    ('exp_power(2)', 6): ('0x1.7328cc0000001p+33', '0x1.22429ac98a21cp-13'),
    ('exp_power(2)', 8): ('0x1.437eeecd80002p+49', '0x1.fb305034d20f7p+2'),
    ('exp_power(2)', 12): ('0x1.9a940c33f6125p+84', '0x1.63655b217858bp+38'),
    ('exp_power(2)', 16): ('0x1.a21627303a544p+123', '0x1.47e43a446ecefp+77'),
    ('exp_power(2)', 24): ('0x1.7a88e4484be40p+209', '0x1.32c160a3a1e5fp+165'),
    ('exp_power(2)', 32): ('0x1.0320568f6ab30p+303', '0x1.bdfa3ca5c053cp+257'),
    ('exp_power(2)', 64): ('0x1.209ab80c3639fp+724', '0x1.48faababd075ap+680'),
    ('exp_power(3)', 0): ('0x1.7fffffffff7ebp+2', '0x1.12f37ac8acb84p-38'),
    ('exp_power(3)', 1): ('0x1.67ffffffffe0ap+8', '0x1.1eb793d77d9cdp-34'),
    ('exp_power(3)', 2): ('0x1.d87ffffffff72p+16', '0x1.b27081844aea7p-28'),
    ('exp_power(3)', 3): ('0x1.c8cfc00000000p+26', '0x1.07f0b167bfbd1p-17'),
    ('exp_power(3)', 4): ('0x1.e7258bc000012p+37', '0x1.b1048620a906bp-9'),
    ('exp_power(3)', 6): ('0x1.9528d9d62071bp+62', '0x1.4ee355900de2cp+16'),
    ('exp_power(3)', 8): ('0x1.f4646edf53e8cp+89', '0x1.dea0a157c8483p+43'),
    ('exp_power(3)', 12): ('0x1.19700ff72cdf0p+150', '0x1.e1cd1eeb7d6a1p+103'),
    ('exp_power(3)', 16): ('0x1.bb986b84b8f41p+215', '0x1.63daa4cf62accp+169'),
    ('exp_power(3)', 24): ('0x1.b0afb722cf0e9p+358', '0x1.55ad91fd96c0fp+312'),
    ('exp_power(3)', 32): ('0x1.0dfc8561e2780p+513', '0x1.12b774e1df10fp+468'),
    ('exp_power(3)', 64): ('refused', 'EvaluationError', 'moment: integrand is inf at x = 12582912.0'),
    ('exp_power(5)', 0): ('0x1.dffffffffede3p+6', '0x1.8b0b9fb2adbf9p-33'),
    ('exp_power(5)', 1): ('0x1.baf7ffffffdfdp+20', '0x1.4fb86c00496bep-21'),
    ('exp_power(5)', 2): ('0x1.95f49f1fffe81p+38', '0x1.9eaa3bed98c38p-1'),
    ('exp_power(5)', 3): ('0x1.0e1b3be4159d6p+59', '0x1.393f2d4ab3306p+15'),
    ('exp_power(5)', 4): ('0x1.4876702991a35p+81', '0x1.222a87959a88bp+42'),
    ('exp_power(5)', 6): ('0x1.15a2b60606b9bp+130', '0x1.b947fb04cb032p+84'),
    ('exp_power(5)', 8): ('0x1.1589583462fc6p+183', '0x1.fd0a6be90eafbp+141'),
    ('exp_power(5)', 12): ('0x1.3eecb94e0d25cp+298', '0x1.442128cc3a121p+257'),
    ('exp_power(5)', 16): ('0x1.87af171914c74p+422', '0x1.175ba66f98f96p+382'),
    ('exp_power(5)', 24): ('0x1.774cda7feba03p+690', '0x1.90fb1de3af29ep+646'),
    ('exp_power(5)', 32): ('0x1.49682f740387ap+977', '0x1.0350270c34a38p+931'),
    ('exp_power(5)', 64): ('refused', 'EvaluationError', 'moment: integrand is inf at x = 6597069766656.0'),
    ('user_fast', 0): ('0x1.c5bf891b4e76bp-1', '0x1.0589f697a940ep-41'),
    ('user_fast', 1): ('0x1.ffffffffffe01p-2', '0x1.19002b60d311ap-44'),
    ('user_fast', 2): ('0x1.c5bf891b4ef56p-2', '0x1.09e4023c353b6p-47'),
    ('user_fast', 3): ('0x1.ffffffffffff1p-2', '0x1.0ec418e837c1ap-47'),
    ('user_fast', 4): ('0x1.544fa6d47b38fp-1', '0x1.170d3d30eda6ep-47'),
    ('user_fast', 6): ('0x1.a96390899a075p+0', '0x1.00a1a06266fb3p-44'),
    ('user_fast', 8): ('0x1.74371e7866c67p+2', '0x1.60ff3a1a15565p-41'),
    ('user_fast', 12): ('0x1.1fe2a1911f7d7p+7', '0x1.659f6ce15590fp-33'),
    ('user_fast', 16): ('0x1.b693422315f91p+12', '0x1.2dcde0217562bp-25'),
    ('user_fast', 24): ('0x1.05020caee5ea6p+26', '0x1.c29a94448a3e0p-12'),
    ('user_fast', 32): ('0x1.2e1900e84c081p+41', '0x1.2103c195a9ee4p+1'),
    ('user_fast', 64): ('0x1.1d8e421e2396bp+114', '0x1.69e72b0a1fc16p+74'),
    ('user_poly_probe', 0): ('0x1.dae6076b971ddp-7', '0x1.02e60b6c2a917p-46'),
    ('user_poly_probe', 1): ('0x1.bef69d9270fd0p-13', '0x1.2bc619c846539p-56'),
    ('user_poly_probe', 2): ('0x1.aaf336fe82e75p-18', '0x1.51da17fe65a02p-63'),
    ('user_poly_probe', 3): ('0x1.3682568a8dc05p-22', '0x1.795d80bcf87d6p-68'),
    ('user_poly_probe', 4): ('0x1.31bb68e6f1f96p-26', '0x1.fb1dbb551ceb4p-73'),
    ('user_poly_probe', 6): ('0x1.232c63e823678p-33', '0x1.daaf4b97ef3c3p-80'),
    ('user_poly_probe', 8): ('0x1.13edf55a2851fp-39', '0x1.bb18ba47bab87p-86'),
    ('user_poly_probe', 12): ('0x1.1ed1c17267110p-49', '0x1.c0281e11a60c0p-96'),
    ('user_poly_probe', 16): ('0x1.6bd718d0beda4p-57', '0x1.ff80d3128567ap-101'),
    ('user_poly_probe', 24): ('0x1.6c1f6617d9a2ap-67', '0x1.2f0fac1203f3cp-113'),
    ('user_poly_probe', 32): ('0x1.59c1807cc725dp-71', '0x1.0ad95eff27657p-112'),
    ('user_poly_probe', 64): ('0x1.31bb68e6f1f65p-26', '0x1.de0f1b65b6869p-73'),
    ('user_poly_declared', 0): ('0x1.3b13b13b13515p-4', '0x1.87b25e65b5a0cp-45'),
    ('user_poly_declared', 1): ('0x1.0953f39010894p-9', '0x1.b3d26593e9e08p-53'),
    ('user_poly_declared', 2): ('0x1.caf214001cab5p-14', '0x1.b3ba5c76de024p-59'),
    ('user_poly_declared', 3): ('0x1.31f6b800131f6p-17', '0x1.fc2a36152d158p-64'),
    ('user_poly_declared', 4): ('0x1.17bd0000117bbp-20', '0x1.e2e89d2e95bb0p-67'),
    ('user_poly_declared', 6): ('0x1.deb24f66ca693p-26', '0x1.7b1edcb4e556ap-72'),
    ('user_poly_declared', 8): ('0x1.b05efd6519eb4p-30', '0x1.51d05653d874ap-76'),
    ('user_poly_declared', 12): ('0x1.f3d16ee80d25ep-36', '0x1.be280ad1c4df0p-75'),
    ('user_poly_declared', 16): ('0x1.e6c784800ccdfp-39', '0x1.12c7b2662077dp-78'),
    ('user_poly_declared', 24): ('0x1.17e5ec30075cep-37', '0x1.36d7e984c6908p-80'),
    ('user_poly_declared', 32): ('0x1.deb24f66ca693p-26', '0x1.85051991105d3p-65'),
    ('user_poly_declared', 64): ('refused', 'ValidationError', 'moment: declared decay (1+x)^-40 cannot dominate x^64; need exponent > 65'),
    ('user_far_scale', 0): ('0x1.e847ffffff000p+19', '0x1.02faf07ffffe9p-20'),
    ('user_far_scale', 1): ('0x1.d1a94a1ffff01p+39', '0x1.2d79883d21210p-4'),
    ('user_far_scale', 2): ('0x1.bc16d674ec7d6p+60', '0x1.595988a133122p+15'),
    ('user_far_scale', 3): ('0x1.3da329b633637p+82', '0x1.782778def82b8p+36'),
    ('user_far_scale', 4): ('0x1.2eec2eb3869adp+104', '0x1.0b7b40d857b95p+58'),
    ('user_far_scale', 6): ('0x1.02498ea6df0c4p+149', '0x1.2200830a07640p+103'),
    ('user_far_scale', 8): ('0x1.9b181c471944fp+194', '0x1.fd2330a6dd144p+148'),
    ('user_far_scale', 12): ('0x1.ed233df785151p+287', '0x1.25a4f49e27329p+243'),
    ('user_far_scale', 16): ('0x1.0fe04fd11a3b8p+383', '0x1.a8ce7cb755818p+336'),
    ('user_far_scale', 24): ('0x1.4119308a54971p+577', '0x1.0ce80ccfb9c9ep+535'),
    ('user_far_scale', 32): ('0x1.52f914c769a72p+775', '0x1.0a4707f00652ap+731'),
    ('user_far_scale', 64): ('refused', 'EvaluationError', 'moment: integrand is inf at x = 100663296.0'),
    ('user_far_bump', 0): ('0x1.0f4e37a4efff7p+31', '0x1.d77d9df31d038p-16'),
    ('user_far_bump', 1): ('0x1.0b744fbd0c056p+62', '0x1.81f3ea2085ed5p+21'),
    ('user_far_bump', 2): ('0x1.b2b2c056ed128p+93', '0x1.46d1f540bf7f5p+51'),
    ('user_far_bump', 3): ('0x1.2336fa2ecd74cp+126', '0x1.ea6aae28acefcp+81'),
    ('user_far_bump', 4): ('0x1.41a6e209aadd1p+159', '0x1.acf499a2fe903p+113'),
    ('user_far_bump', 6): ('0x1.b7a80284449b1p+227', '0x1.02eb6fd120b23p+188'),
    ('user_far_bump', 8): ('0x1.15879a04ef25ap+299', '0x1.25246b1c5d6f3p+255'),
    ('user_far_bump', 12): ('0x1.5c8b7d8f6f117p+450', '0x1.df0dcbb574e4cp+408'),
    ('user_far_bump', 16): ('0x1.3e91bb867fafap+613', '0x1.4300e67c9436cp+574'),
    ('user_far_bump', 24): ('0x1.9a56925a540d9p+973', '0x1.dd70d5d4b7fbcp+928'),
    ('user_far_bump', 32): ('refused', 'EvaluationError', 'moment: integrand is inf at x = 2.7021597764222976e+16'),
    ('user_far_bump', 64): ('refused', 'EvaluationError', 'moment: integrand is inf at x = 1.1068046444225731e+20'),
}

# (name, p) -> value as float.hex
ORIGIN_PINS = {
    ('bump01', 0): '0x1.ccb573f3afa98p-8',
    ('bump01', 1): '0x1.f914d349ae5e7p-7',
    ('bump01', 2): '0x1.362118234d247p-5',
    ('bump01', 4): '0x1.66de06ece572fp-2',
    ('bump01', 8): '0x1.b0353df6577e6p+7',
    ("bump01'", 1): '0x1.362118234d246p-5',
    ("bump01'", 2): '0x1.b4664cf5b8bc0p-3',
    ("bump01'", 4): '0x1.5d2cfe2bcb09dp+2',
    ("bump01'", 8): '0x1.87816b518e643p+13',
}

# (name, zeta) -> (Re value, Im value, abs error) as float.hex
LAPLACE_PINS = {
    ('exp_power(1)', 0.5j): ('0x1.5555555555558p-1', '0x0.0p+0', '0x1.0aab16595963ap-47'),
    ('exp_power(1)', (1+0.5j)): ('0x1.d89d89d89d89cp-2', '0x1.3b13b13b13b13p-2', '0x1.4d7175d99387ep-47'),
    ('exp_power(1)', (-3+0.1j)): ('0x1.b94af83a2ba17p-4', '-0x1.2ce1a93eef334p-2', '0x1.086e05be43ed2p-45'),
    ('exp_power(1)', 0j): ('0x1.0000000000000p+0', '0x0.0p+0', '0x1.900000000196cp-47'),
    ('exp_power(2)', (2+1j)): ('0x1.7b418cf1a2818p-3', '0x1.a342bc69ce21ep-3', '0x1.216a463487940p-44'),
    ('user_fast', (1+1j)): ('0x1.e3d6789dc4bacp-2', '0x1.a2559fa790af8p-3', '0x1.0f4fae500b381p-47'),
    ('bump01', (2+0j)): ('0x1.df1817f849f82p-9', '0x1.75128b51e904dp-8', '0x1.44b7bd85aaa38p-48'),
    ('bump01', 0.5j): ('0x1.67a8af67430dep-8', '0x0.0p+0', '0x1.2ba8043864600p-54'),
}


def test_moment_grid_is_pinned_bit_for_bit():
    assert len(MOMENT_PINS) == len(FUNCTIONS) * len(ORDERS) == 156
    got = {}
    for name, make in FUNCTIONS.items():
        for p in ORDERS:
            try:
                value, error = moment_with_error(make(), p)
            except Exception as exc:  # the refusals are pinned too
                got[name, p] = ("refused", type(exc).__name__, str(exc))
            else:
                got[name, p] = (value.hex(), error.hex())
    assert got == MOMENT_PINS


def test_origin_moments_are_pinned_bit_for_bit():
    bump = make_bump01()
    functions = {"bump01": bump, "bump01'": derivative_function(bump)}
    got = {(name, p): moment_origin(functions[name], p).hex() for name, p in ORIGIN_PINS}
    assert got == ORIGIN_PINS


def test_laplace_samples_are_pinned_bit_for_bit():
    functions = {name: FUNCTIONS[name]() for name in ("exp_power(1)", "exp_power(2)", "user_fast")}
    functions["bump01"] = make_bump01()
    got = {}
    for name, zeta in LAPLACE_PINS:
        sample = laplace_sample(functions[name], zeta)
        got[name, zeta] = (sample.value.real.hex(), sample.value.imag.hex(), sample.abs_error.hex())
    assert got == LAPLACE_PINS


def _full_scale_scan(f, p):
    # the ascending first-maximum scan over every k in -80..240
    best_k, best = 0, -math.inf
    for k in range(-80, 241):
        val = abs(f(2.0**k))
        log_val = math.log(val) if val > 0.0 else -math.inf
        if log_val > -math.inf and (p + 1) * k * math.log(2.0) + log_val > best:
            best_k, best = k, (p + 1) * k * math.log(2.0) + log_val
    return best_k


def _plateau(x):
    # (p+1) k log 2 + log |f(2^k)| is exactly 0 for p = 0 and k = -2..2
    return 4.0 if x < 0.25 else 1.0 / x if x <= 4.0 else 0.0


def _plateau_envelope(x):
    return math.log(4.0) if x < 0.25 else -math.log(x) if x <= 4.0 else -math.inf


def test_scale_scan_stop_keeps_the_full_scans_first_maximum():
    functions = {name: make() for name, make in FUNCTIONS.items()}
    functions["plateau"] = make_user(_plateau, math.inf, log_envelope=_plateau_envelope)
    for name, phi in functions.items():
        for p in ORDERS:
            calls = []

            def f(x, _f=phi.evaluator):
                calls.append(x)
                return _f(x)

            assert _dominant_scale(f, phi.log_envelope, p) == _full_scale_scan(phi.evaluator, p), (name, p)
            if name.startswith("exp_power"):
                # the declared envelope ends the 321-point scan early
                assert len(calls) < 150, (name, p, len(calls))
    # ties go to the smaller k, across the two halves of the scan
    assert _dominant_scale(_plateau, _plateau_envelope, 0) == _full_scale_scan(_plateau, 0) == -2
    # without an envelope, or with a nan or infinite one, every k is scored
    for envelope in (None, lambda x: math.nan, lambda x: math.inf):
        calls = []
        _dominant_scale(lambda x: calls.append(x) or math.exp(-x), envelope, 1)
        assert sorted(calls) == [2.0**k for k in range(-80, 241)]


def test_moments_past_the_float_range_of_x_to_the_p():
    # x^p overflows near these integrands' peaks, where the integrand is
    # exp(p log x + log f(x)): a finite moment matches its closed form, one
    # past the float range is a one-line EvaluationError
    finite = {
        ("exp_power(2)", 64): float(2 * math.factorial(129)),  # s Gamma(s(p+1))
        ("exp_power(5)", 32): float(5 * math.factorial(164)),
        # sqrt(pi) e^((p+1) c + (p+1)^2/4) with c = log 1e9
        ("user_far_bump", 24): math.sqrt(math.pi) * 1e225 * math.exp(625 / 4),
    }
    for (name, p), want in finite.items():
        value, error = moment_with_error(FUNCTIONS[name](), p)
        assert abs(value - want) <= 1e-12 * want and error <= 1e-10 * want, (name, p, value, want)
    log_max = math.log(sys.float_info.max)
    beyond = {
        ("exp_power(3)", 64): math.log(3) + math.lgamma(195),
        ("exp_power(5)", 64): math.log(5) + math.lgamma(325),
        ("user_far_scale", 64): math.lgamma(65) + 390 * math.log(10),  # p! 10^(6(p+1))
        ("user_far_bump", 32): 0.5 * math.log(math.pi) + 33 * math.log(1e9) + 33**2 / 4,
        ("user_far_bump", 64): 0.5 * math.log(math.pi) + 65 * math.log(1e9) + 65**2 / 4,
    }
    for (name, p), log_want in beyond.items():
        assert log_want > log_max
        with pytest.raises(EvaluationError, match="^moment: integrand is inf at x = [0-9.e+]+$"):
            moment_with_error(FUNCTIONS[name](), p)
